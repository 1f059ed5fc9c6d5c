module emgo/bench

go 1.22

require emgo v0.0.0

replace emgo => ../
