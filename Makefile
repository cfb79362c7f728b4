# BLOCKBENCH reproduction — build / test / bench entry points.
#
#   make build   compile everything
#   make test    full test suite (the tier-1 gate runs build + test)
#   make race    short-mode suite under the race detector
#   make bench   root benchmark smoke (one iteration per figure) and
#                write the results to BENCH_ci.json so the performance
#                trajectory accumulates across PRs
#   make allocprof PLATFORM=hyperledger WORKLOAD=smallbank SECONDS=5
#                where a live run's allocated bytes and objects go from a
#                quarter to three quarters of the way through (top 15
#                frames of each); ARGS='-popt store=lsm -wopt
#                tuples=10' reaches the CLI
#   make bench-build  compile and vet bench/, the benchmark's own module:
#                tier-1 never builds it, and it imports internal/...
#   make loc     the non-test Go line count ROADMAP's design-shrink item
#                tracks (bench/ excluded)
#   make loc-check  fail when that count differs from LOC_MAX (the CI ratchet)
GO ?= go

.PHONY: build vet test race bench bench-check bench-build allocprof loc loc-check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test -timeout 20m ./...

race:
	$(GO) test -short -race -timeout 20m ./...

# BENCH_ci.json holds the run in go's test2json NDJSON form: one event
# per line, with the benchmark metric lines ("BenchmarkX ... ns/op") in
# the output events. -benchtime=1x keeps this a smoke pass. Alongside
# the root figure benchmarks (which include the driver submission
# pipeline, the run handle's snapshot-stream overhead and the sharded
# platform's shard-scaling sweep at S=1/2/4/8) it runs the txpool
# contention benchmarks, the trie-commit allocation benchmarks
# (internal/mpt), the LRU put-at-capacity/get-hit benchmarks
# (internal/lru) and the raft engine benchmarks (commit latency,
# long-run log residency with compaction on/off) and the
# storage-engine benchmarks (internal/kvstore: LSM
# point reads vs history length, range scans, flat-cache hits) and the
# bucket-tree put/get/commit benchmarks (internal/bmt, dense and sparse
# write sets) and the execution-layer benchmarks (internal/contracts:
# the EVM quicksort and ycsb write against their native chaincode
# twins) and the shared commit path's codec and tx-root benchmarks
# (internal/types BenchmarkEncodeBlock, internal/merkle BenchmarkTxRoot:
# a 20-transaction block, allocs/op is the number that matters) and the
# state point read (internal/state BenchmarkStatePointRead: GetState over
# an LSM-backed flat layer with a working set 5x its LRU; allocs/get) and
# the commit-time signature check of a block no pool has seen
# (internal/crypto BenchmarkVerifyBlockCold: 400 misses fanned out over
# GOMAXPROCS; us/tx) and the analytics index's own query cost
# (internal/analytics BenchmarkIndexQuery: the four ops over 100 000 x 3
# rows, no RPC; ns/op and allocs/op), so all those trajectories
# accumulate across PRs. The root set also covers the analytics engine
# (the RPC-walk-vs-indexed query latency series at 1k/10k/100k blocks
# and the HTAP OLTP+OLAP mix) and the lifecycle tracer's overhead sweep
# (submission throughput with sampling off, at the 1% default, and at
# sample-everything).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem -timeout 120m -json . ./internal/txpool ./internal/mpt ./internal/lru ./internal/consensus/raft ./internal/kvstore ./internal/bmt ./internal/contracts ./internal/types ./internal/merkle ./internal/state ./internal/crypto ./internal/analytics > BENCH_ci.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_ci.json | sed 's/"Output":"//;s/\\n$$//' || true

# bench-check is the CI regression gate: run only the tracked benchmark
# families (raft commit latency, shard scaling, exec scaling, txpool
# contention, LSM point-read/range-scan, flat-cache hits, analytics
# query latency, the HTAP mix, the lifecycle-trace overhead sweep, the
# EVM quicksort) into
# BENCH_new.json, then compare against the committed BENCH_ci.json
# baseline with cmd/benchcheck's tolerance. The committed file is never
# overwritten here — refresh it with `make bench` when a PR
# legitimately moves the numbers.
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkRaftCommitLatency|BenchmarkShardScaling|BenchmarkExecScaling|BenchmarkPoolContention|BenchmarkLSMPointRead|BenchmarkLSMRangeScan|BenchmarkFlatCacheHit|BenchmarkAnalyticsQuery|BenchmarkHTAPMix|BenchmarkTraceOverhead|BenchmarkEVMSort' \
		-benchtime 1x -benchmem -timeout 60m -json . ./internal/txpool ./internal/consensus/raft ./internal/kvstore ./internal/contracts > BENCH_new.json
	$(GO) run ./cmd/benchcheck -baseline BENCH_ci.json -new BENCH_new.json

# bench-build is the only thing that tells a refactor it broke the
# repository benchmark: bench/ is a separate module (replace => ../), so
# `go build ./...` and `go test ./...` skip it, yet its layer probes call
# internal/ packages directly. -mod=readonly: it needs no go.sum (its one
# requirement is replaced by ../), and a build that would rewrite
# bench/go.mod fails here instead of editing it silently.
bench-build:
	cd bench && GOFLAGS=-mod=readonly $(GO) vet ./...

# allocprof answers "where do the bytes go" for one platform x workload:
# a 4-node run with the per-run ops endpoint up, the heap's allocation
# profile (everything allocated since process start) fetched from
# /debug/pprof/allocs twice, a quarter and three quarters of the way
# through, and the top frames of their difference (-base first second,
# so set-up and preload drop out: one cumulative snapshot once blamed
# compaction for a CLI run's preload) printed by bytes and then by
# objects (the benchmark gates allocs_per_tx, a count: a 33-byte make per
# Merkle leaf is invisible in the first table and near the top of the
# second). The later snapshot stays in $(ALLOCPROF_OUT), the earlier one
# beside it with -base in its name, for `go tool pprof -list` or a diff
# against another commit's. ARGS is appended to the CLI line (-popt/-wopt
# and the like), e.g. the trie write path: PLATFORM=quorum
# WORKLOAD=ioheavy ARGS='-popt store=lsm -wopt tuples=10'. The CLI (not
# the compiler) runs under GODEBUG=memprofilerate=1, so the tables are
# exact, CI's allocs-profile artifacts too: at the runtime's default the
# profile samples about one allocation per 512 KiB and scales each
# sample up, so a 16-byte object is counted from a handful of samples.
# The last two lines divide the window's totals by its transaction
# count, read off the profile itself: blockbench.(*Client).buildTx
# allocates exactly one object per transaction, so its flat
# alloc_objects is the divisor (a paced run commits fewer transactions
# than its rate times the window, so the rate is not). The totals leave
# out what serving the first snapshot allocated (net/http/pprof's
# frames, inside the window): at a paced rate that is ≈ 24 objects per
# transaction, none of them the run's.
PLATFORM ?= hyperledger
WORKLOAD ?= smallbank
SECONDS ?= 5
ARGS ?=
ALLOCPROF_ADDR ?= 127.0.0.1:6062
ALLOCPROF_OUT ?= allocs.pprof

allocprof:
	@set -eu; \
	$(GO) run -exec "env GODEBUG=memprofilerate=1" ./cmd/blockbench -platform $(PLATFORM) -workload $(WORKLOAD) \
		-nodes 4 -duration $(SECONDS)s -http $(ALLOCPROF_ADDR) -quiet $(ARGS) & \
	run_pid=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(ALLOCPROF_ADDR)/healthz > /dev/null && break; \
		kill -0 $$run_pid 2> /dev/null || { echo "allocprof: run exited before its ops endpoint answered"; exit 1; }; \
		sleep 0.2; \
	done; \
	sleep $$(( $(SECONDS) / 4 )); \
	curl -sf -o $(basename $(ALLOCPROF_OUT))-base.pprof http://$(ALLOCPROF_ADDR)/debug/pprof/allocs; \
	sleep $$(( $(SECONDS) * 3 / 4 - $(SECONDS) / 4 )); \
	curl -sf -o $(ALLOCPROF_OUT) http://$(ALLOCPROF_ADDR)/debug/pprof/allocs; \
	wait $$run_pid; \
	for index in alloc_space alloc_objects; do \
		$(GO) tool pprof -sample_index=$$index -top -nodecount=15 -base $(basename $(ALLOCPROF_OUT))-base.pprof $(ALLOCPROF_OUT); \
	done; \
	top() { $(GO) tool pprof -sample_index=$$1 -unit=B -ignore=net/http/pprof -top -nodecount=1000000 -nodefraction=0 \
		-base $(basename $(ALLOCPROF_OUT))-base.pprof $(ALLOCPROF_OUT) 2> /dev/null; }; \
	bytes=$$(top alloc_space | awk '/accounting for/ { print $$5 + 0; exit }'); \
	top alloc_objects | awk -v b="$$bytes" '/accounting for/ { o = $$5 + 0 } $$NF == "blockbench.(*Client).buildTx" { n = $$1 + 0 } END { \
		printf "window: %d transactions (flat alloc_objects of blockbench.(*Client).buildTx, one per transaction)\n", n; \
		if (n > 0) printf "per transaction, the profile endpoint left out: %.1f objects, %.2f KB (%.0f objects, %.0f B)\n", o / n, b / n / 1024, o, b }'

# loc makes "net-negative" a number in the log rather than a claim.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# loc-check is the ratchet: LOC_MAX is the count the last shrinking PR
# left. A PR that lowers the count lowers LOC_MAX with it; one that must
# raise it says so in its diff of this line. It was raised from 21282
# by the 131 lines of simnet's per-endpoint delivery queue (a hand-
# written min-heap, a pool of reusable timers), which replaced a
# time.AfterFunc and a closure per message. It fell to 21359 when raft,
# pbft, poa and the sharded gateway came to embed consensus.Runner (no
# forwarding Start/Stop/Handle) and shared one batch picker. It fell to
# 21153 when the workload registry moved beside Workload with typed
# factories and every -wopt key without a chooser went. It was raised
# to 21176 by the LSM memtable's arena (its type, chunk size and alloc,
# 21 lines, its field and its reset at flush), which replaced one record
# allocation per Put with one per 32 KiB chunk. It fell to 21062 when
# the platform, contract, shard-key and experiment registries became
# literal tables (no init-time Register, no maps, no locks). It was
# raised to 21093 by one allocation per state write: the trie's leaf
# with its path inline (its type and constructor, a copy flag on
# attach), the run writer's shared index-key buffer and SetState's
# one-record layout, less keyNibbles and the unused Cluster.Indexer.
# It fell to 20988 when TestChooserRule made the chooser rule a check
# and the declarations it listed that only tests used went. It fell to
# 20908 when the scan came to cover struct fields and the fields no
# non-test code read, or knobs none set, went with the code that kept
# them. It was raised to 20933 by the LSM's read arena (its type, its
# locked copy, its field, the empty-request case in alloc and the
# ownership comments), which replaced one allocation per run-served
# Get with one per 32 KiB chunk. It was raised to 21020 by the
# transaction path's scratch: the chaincodes' stack buffer and their
# named revert reasons, the bucket backend's commit key, the driver's
# direct paced send and poller scratch, the chain's head-switch scratch
# and PBFT's per-instance vote set, which replaced two maps. It was
# raised to 21297 by internal/consensus/schedtest (278 lines), the one
# schedule harness under the raft, pbft, poa and sharding tables: test
# infrastructure in a non-test package, which the four test files' own
# copies of its plumbing (281 test lines) gave way to; the product
# changes beside it (PBFT's proof view, the gateway's due order, a
# proposal's timestamp from its proposer's clock) came to one line less.
# It was raised to 21368 by the block path's scratch: the chain's kept
# state DB (its two fields, the reuse test in execute, DB.Rebind and
# Trie.Reset), the journal's key and record built in per-node buffers
# (appendBlockKey, types.AppendBlock, storeMeta's key) and the pick
# scratch of Raft and PBFT (Pool.AppendBatch, PickBatch's dst), which
# replaced a state DB, trie and their buffers, a formatted key, a
# record and two slices per block. It fell to 21252 when a run's event
# timeline became the one way a fault reaches a cluster: the public
# Cluster's eight fault forwarders, the schedule's state-gated triggers
# with their polling loop, platform.Cluster.PartitionHalves and
# simnet's Partition went, and the chain's Query and BalanceAt, which
# read under its lock, replaced its State and the node's Exec engine.
# It was raised to 21293 by parallel set-up: Preload's per-chain
# goroutines and joined errors, simnet's corrupted and delayed counters
# with the Counters method that reports them, and the every-node
# default that SetDelay and SetCorruptRate now share with SetLinkFaults.
# It fell to 20957 when the analytics index became memory-only: its
# write-only persistence (persist.go, Load, CatchUp with BlockSource,
# Last, the segment's time column) and Chain.Receipts went, and simnet's
# fault counts moved into Stats in place of Network.Counters.
# It was raised to 21049 by a trie branch that reads its children's
# hashes from its stored encoding instead of copying them (the encoding
# and cleared-slot fields, the slot resolver, the commit's read-back and
# the split that resolves a child a new branch takes), which took
# ownBranch's copy from 896 to 352 bytes, and by two store errors that
# no longer pass in silence: the flat layer resets on a failed write,
# and the analytics index keeps its first failure for Query.
# It was raised to 21208 by the EVM's decoded table (159 lines): a
# Program decodes its code once into an entry per offset, and seven
# fused runs, the commonest in the CPUHeavy sort, dispatch once behind
# a guard that keeps gas, steps and traps the byte loop's; and by the
# LSM flush's kept key slice.
# It was raised to 21419 by block metering in the EVM (211 lines): the
# decoder records each offset's straight-line block (static gas, steps,
# operands needed, room for pushes) and the table's own entries for the
# end of the code, a jump past it and a truncated immediate; vm.run
# checks a block once, single-steps where that fails and keeps its
# call-outs in a second switch below the hot loop; two more fused runs;
# and by a per-metric tolerance in cmd/benchcheck with its compare
# function, the store's size-refusal sentinel the flat layer no longer
# resets on, and Smallbank's concurrent agreement check.
# It fell to 21418 when the chain came to build every block itself
# (Chain.Build with its Meta, the one execute that also enforces a gas
# limit, the outcome held for the Append of the built block, the journal
# replay that fails on a bad record): ProposeBlock with its second
# execution loop, the engines' and Preload's header literals, the
# ledger's and the assembly's GasLimit, the entry's copy of the state
# root and pow's broadcast wrapper went; schedtest gained Rebuild.
# It fell to 21374 when Raft came to persist through the node's store:
# consensus.MetaStore and platform's storeMeta adapter went, with
# metrics.Counter and the LSM's second close body, and buildNode's three
# DurableRecovery blocks and Recover's durable/non-durable split became
# one each; Raft's save sites and Recover now return their errors, and
# schedule actions theirs.
LOC_MAX ?= 21374

# The check is exact: a count below LOC_MAX fails too, so a shrinking PR
# cannot leave the ratchet stale.
loc-check:
	@n=$$($(MAKE) -s loc); echo "non-test Go lines (bench/ excluded) = $$n (LOC_MAX $(LOC_MAX))"; \
	test $$n -le $(LOC_MAX) || { echo "loc-check: $$n exceeds LOC_MAX=$(LOC_MAX)"; exit 1; }; \
	test $$n -ge $(LOC_MAX) || { echo "loc-check: lower LOC_MAX to $$n"; exit 1; }

clean:
	rm -f BENCH_ci.json BENCH_new.json $(ALLOCPROF_OUT) $(basename $(ALLOCPROF_OUT))-base.pprof
