module rica/benchmark

go 1.24

require rica v0.0.0

replace rica => ../
