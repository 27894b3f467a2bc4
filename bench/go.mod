module continustreaming/bench

go 1.22

require continustreaming v0.0.0

replace continustreaming => ../
