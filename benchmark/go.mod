module pqgram/benchmark

go 1.22

require pqgram v0.0.0

replace pqgram => ../
