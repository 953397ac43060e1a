module conceptweb/bench

go 1.22

require conceptweb v0.0.0

replace conceptweb => ../
