module fscache/bench

go 1.22

require fscache v0.0.0

replace fscache => ../
