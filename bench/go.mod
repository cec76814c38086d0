module specsync/bench

go 1.22

require specsync v0.0.0

replace specsync => ../
