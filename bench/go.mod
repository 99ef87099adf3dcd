module sspubsub/bench

go 1.22

require sspubsub v0.0.0

replace sspubsub => ../
