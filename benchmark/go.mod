module elmo/benchmark

go 1.22

require elmo v0.0.0

replace elmo => ../
