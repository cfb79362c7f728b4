// The benchmark is a module of its own so that the product's
// `go build ./... && go test ./...` never compiles or runs it; the
// module path stays under blockbench/ so it may import the product's
// internal packages for the layer probes.
module blockbench/bench

go 1.22

require blockbench v0.0.0

replace blockbench => ../
