//go:build !race

package wire

func poison(Message) {}
