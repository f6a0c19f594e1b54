module cup/bench

go 1.22

require cup v0.0.0

replace cup => ../
