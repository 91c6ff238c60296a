module locsvc/bench

go 1.21

require locsvc v0.0.0

replace locsvc => ../
