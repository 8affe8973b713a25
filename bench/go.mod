module gsso/bench

go 1.23

require gsso v0.0.0

replace gsso => ../
