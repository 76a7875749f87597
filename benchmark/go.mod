module securecloud/benchmark

go 1.24.0

require securecloud v0.0.0

replace securecloud => ../
