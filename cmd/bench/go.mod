module github.com/readoptdb/readopt/cmd/bench

go 1.22

require github.com/readoptdb/readopt v0.0.0

replace github.com/readoptdb/readopt => ../..
