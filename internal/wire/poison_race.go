//go:build race

package wire

import (
	"math"
	"reflect"
)

// poison overwrites every float slice of a message about to be pooled with
// NaN and every byte slice with 0xFF. Reading a message after handing it back
// then breaks a digest or a loss check instead of passing by luck until the
// pool reuses the storage.
func poison(m Message) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).CanInterface() {
			continue
		}
		switch s := v.Field(i).Interface().(type) {
		case []float64:
			for j := range s {
				s[j] = math.NaN()
			}
		case []byte:
			for j := range s {
				s[j] = 0xFF
			}
		}
	}
}
