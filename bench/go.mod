module mdmatch/bench

go 1.22

require mdmatch v0.0.0

replace mdmatch => ../
