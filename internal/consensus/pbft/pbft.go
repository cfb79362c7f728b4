// Package pbft implements Practical Byzantine Fault Tolerance as used by
// the Hyperledger Fabric v0.6 preset: three-phase agreement
// (pre-prepare / prepare / commit) over transaction batches, 2f+1
// quorums with f = (n-1)/3, pipelined instances, and view changes with
// prepared-certificate carryover. Progress requires a live quorum, so
// blocks are final the moment they commit — the protocol never forks,
// which is exactly what the paper's partition attack shows (no stale
// blocks, but a longer recovery after the partition heals).
//
// The engine processes all messages on a single goroutine per node (the
// node's inbox loop). Combined with simnet's bounded inboxes this
// reproduces the failure mode the paper found at scale: "consensus
// messages are rejected ... on account of the message channel being
// full", so views diverge and consensus stalls beyond ~16 nodes.
package pbft

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/merkle"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/internal/types"
)

// Message type tags.
const (
	MsgPrePrepare = "pbft_preprepare"
	MsgPrepare    = "pbft_prepare"
	MsgCommit     = "pbft_commit"
	MsgViewChange = "pbft_viewchange"
)

// PrePrepare proposes a batch at (view, seq).
type PrePrepare struct {
	View, Seq uint64
	Txs       []*types.Transaction
}

// WireSize implements simnet.Sizer.
func (m *PrePrepare) WireSize() int {
	n := 24
	for _, tx := range m.Txs {
		n += tx.WireSize()
	}
	return n
}

// Vote is a prepare or commit for a batch digest.
type Vote struct {
	View, Seq uint64
	Digest    types.Hash
}

// WireSize implements simnet.Sizer.
func (*Vote) WireSize() int { return 24 + types.HashSize }

// PreparedProof carries a prepared-but-unexecuted batch into a view
// change so the new primary can re-propose it (the safety-critical part
// of PBFT's new-view protocol, simplified: proofs are trusted because
// simulated nodes are honest; Byzantine behaviour enters via the
// network fault injectors instead).
type PreparedProof struct {
	Seq    uint64
	Digest types.Hash
	Txs    []*types.Transaction
}

// ViewChange votes to move to NewView.
type ViewChange struct {
	NewView  uint64
	Height   uint64
	Prepared []PreparedProof
}

// WireSize implements simnet.Sizer.
func (m *ViewChange) WireSize() int {
	n := 48
	for _, p := range m.Prepared {
		n += 8 + types.HashSize
		for _, tx := range p.Txs {
			n += tx.WireSize()
		}
	}
	return n
}

// Options tunes the protocol.
type Options struct {
	// BatchSize is the number of transactions per consensus batch
	// (Fabric's batchSize; the paper's default is 500, the repository
	// default 20 at the 25x scale).
	BatchSize int
	// BatchTimeout proposes a partial batch after this long.
	BatchTimeout time.Duration
	// ViewTimeout triggers a view change when no progress happens while
	// work is outstanding. Doubles on consecutive failed views.
	ViewTimeout time.Duration
}

// window is the number of concurrently in-flight instances. It has one
// value in use, so it is not an option.
const window = 8

// DefaultOptions returns the Hyperledger-preset defaults: the one place
// they are stated (the preset starts from it and overlays -popt keys).
func DefaultOptions() Options {
	return Options{
		BatchSize:    20,
		BatchTimeout: 15 * time.Millisecond,
		ViewTimeout:  400 * time.Millisecond,
	}
}

type instance struct {
	view     uint64
	digest   types.Hash
	txs      []*types.Transaction
	prepares map[simnet.NodeID]bool
	commits  map[simnet.NodeID]bool
	sentPrep bool
	sentComm bool
}

// Engine is one PBFT replica.
type Engine struct {
	ctx  consensus.Context
	opts Options
	f    int
	// peers sorted for deterministic primary rotation.
	peers []simnet.NodeID

	mu           sync.Mutex
	view         uint64
	active       bool // false while a view change is in progress
	instances    map[uint64]*instance
	assigned     map[types.Hash]bool // txs already batched (primary)
	nextSeq      uint64
	vcVotes      map[uint64]map[simnet.NodeID]*ViewChange
	votedView    uint64
	lastProgress time.Time
	failedViews  uint64 // consecutive views without progress (backoff)
	viewChanges  atomic.Uint64
	batchesDone  atomic.Uint64

	stop    chan struct{}
	done    sync.WaitGroup
	started atomic.Bool
}

// New creates a PBFT engine from resolved options (the preset and tests
// start from DefaultOptions). All peers run replicas.
func New(ctx consensus.Context, opts Options) *Engine {
	peers := append([]simnet.NodeID(nil), ctx.Peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	n := len(peers)
	return &Engine{
		ctx:          ctx,
		opts:         opts,
		f:            (n - 1) / 3,
		peers:        peers,
		active:       true,
		instances:    make(map[uint64]*instance),
		assigned:     make(map[types.Hash]bool),
		vcVotes:      make(map[uint64]map[simnet.NodeID]*ViewChange),
		lastProgress: time.Now(),
		stop:         make(chan struct{}),
	}
}

func (e *Engine) quorum() int { return 2*e.f + 1 }

func (e *Engine) primaryOf(view uint64) simnet.NodeID {
	return e.peers[int(view)%len(e.peers)]
}

// Start implements consensus.Engine.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	e.done.Add(1)
	go e.timerLoop()
}

// Stop implements consensus.Engine.
func (e *Engine) Stop() {
	if e.started.CompareAndSwap(true, false) {
		close(e.stop)
		e.done.Wait()
	}
}

// ViewChanges counts view transitions this replica has performed.
func (e *Engine) ViewChanges() uint64 { return e.viewChanges.Load() }

// Counters implements metrics.CounterProvider.
func (e *Engine) Counters() map[string]uint64 {
	return map[string]uint64{
		"pbft.view_changes": e.viewChanges.Load(),
		"pbft.batches":      e.batchesDone.Load(),
	}
}

// timerLoop drives batch proposal (when primary) and view-change
// timeouts.
func (e *Engine) timerLoop() {
	defer e.done.Done()
	tick := time.NewTicker(e.opts.BatchTimeout)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
			e.mu.Lock()
			e.maybeProposeLocked()
			e.maybeViewChangeLocked()
			e.mu.Unlock()
		}
	}
}

func digestOf(view, seq uint64, txs []*types.Transaction) types.Hash {
	e := types.NewEncoder()
	e.Uint64(view)
	e.Uint64(seq)
	root := merkle.TxRoot(txs)
	e.Raw(root[:])
	return types.HashData(e.Out())
}

// maybeProposeLocked lets the primary open one new instance per batch
// tick (Fabric batches on a size/timeout trigger; one batch per timeout
// is what yields the paper's ~3 blocks/s at batch size 500).
func (e *Engine) maybeProposeLocked() {
	if !e.active || e.primaryOf(e.view) != e.ctx.Self {
		return
	}
	height := e.ctx.Chain.Height()
	if e.nextSeq <= height {
		e.nextSeq = height + 1
	}
	if int(e.nextSeq-height)-1 < window {
		txs := e.pickBatchLocked()
		if len(txs) == 0 {
			return
		}
		seq := e.nextSeq
		e.nextSeq++
		for _, tx := range txs {
			e.ctx.Tracer.Stamp(tx.Hash(), trace.StagePropose)
		}
		pp := &PrePrepare{View: e.view, Seq: seq, Txs: txs}
		inst := e.getInstance(seq, e.view, txs)
		inst.prepares[e.ctx.Self] = true // primary's pre-prepare counts
		e.ctx.Endpoint.Broadcast(MsgPrePrepare, pp)
		// Tiny deployments (n ≤ 3 ⇒ f = 0) reach quorum on the primary's
		// own messages; advance immediately rather than waiting for
		// network echoes that never come.
		e.advanceLocked(seq, inst)
	}
}

// pickBatchLocked selects pending transactions not already in flight.
func (e *Engine) pickBatchLocked() []*types.Transaction {
	candidates := e.ctx.Pool.Batch(e.opts.BatchSize+len(e.assigned), 0)
	out := make([]*types.Transaction, 0, e.opts.BatchSize)
	for _, tx := range candidates {
		if e.assigned[tx.Hash()] {
			continue
		}
		out = append(out, tx)
		if len(out) >= e.opts.BatchSize {
			break
		}
	}
	for _, tx := range out {
		e.assigned[tx.Hash()] = true
	}
	return out
}

func (e *Engine) getInstance(seq, view uint64, txs []*types.Transaction) *instance {
	inst := e.instances[seq]
	if inst == nil || inst.view != view {
		inst = &instance{
			view:     view,
			prepares: make(map[simnet.NodeID]bool),
			commits:  make(map[simnet.NodeID]bool),
		}
		e.instances[seq] = inst
	}
	if txs != nil {
		inst.txs = txs
		inst.digest = digestOf(view, seq, txs)
	}
	return inst
}

// Handle implements consensus.Engine.
func (e *Engine) Handle(msg simnet.Message) bool {
	if consensus.HandleSync(e.ctx, msg) {
		e.mu.Lock()
		e.noteProgressLocked()
		e.executeReadyLocked()
		e.mu.Unlock()
		return true
	}
	if msg.Corrupt {
		// Damaged messages fail authentication and are discarded — the
		// paper's "random response" Byzantine failure mode.
		switch msg.Type {
		case MsgPrePrepare, MsgPrepare, MsgCommit, MsgViewChange:
			return true
		}
		return false
	}
	switch msg.Type {
	case MsgPrePrepare:
		pp, ok := msg.Payload.(*PrePrepare)
		if ok {
			e.onPrePrepare(msg.From, pp)
		}
	case MsgPrepare:
		v, ok := msg.Payload.(*Vote)
		if ok {
			e.onVote(msg.From, v, false)
		}
	case MsgCommit:
		v, ok := msg.Payload.(*Vote)
		if ok {
			e.onVote(msg.From, v, true)
		}
	case MsgViewChange:
		vc, ok := msg.Payload.(*ViewChange)
		if ok {
			e.onViewChange(msg.From, vc)
		}
	default:
		return false
	}
	return true
}

func (e *Engine) onPrePrepare(from simnet.NodeID, pp *PrePrepare) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pp.View > e.view && e.primaryOf(pp.View) == from {
		// A restarted replica wakes up in a stale view while the cluster
		// has moved on; the primary of the newer view is speaking, so
		// adopt its view (honest-node simplification — a Byzantine-safe
		// replica would demand the new-view certificate first).
		e.view = pp.View
		e.active = true
		if e.votedView < pp.View {
			e.votedView = pp.View
		}
		e.instances = make(map[uint64]*instance)
		e.assigned = make(map[types.Hash]bool)
		e.noteProgressLocked()
	}
	if pp.View != e.view || !e.active || e.primaryOf(pp.View) != from {
		return
	}
	height := e.ctx.Chain.Height()
	if pp.Seq <= height {
		return // already executed
	}
	if pp.Seq > height+4*window {
		// Far ahead: we missed batches; catch up from the primary.
		consensus.RequestSync(e.ctx, from)
		return
	}
	inst := e.getInstance(pp.Seq, pp.View, pp.Txs)
	inst.prepares[from] = true // the pre-prepare is the primary's prepare
	if !inst.sentPrep {
		inst.sentPrep = true
		inst.prepares[e.ctx.Self] = true
		e.ctx.Endpoint.Broadcast(MsgPrepare, &Vote{View: pp.View, Seq: pp.Seq, Digest: inst.digest})
	}
	e.advanceLocked(pp.Seq, inst)
}

func (e *Engine) onVote(from simnet.NodeID, v *Vote, isCommit bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v.View != e.view || !e.active {
		return
	}
	if v.Seq <= e.ctx.Chain.Height() {
		return
	}
	inst := e.getInstance(v.Seq, v.View, nil)
	if isCommit {
		inst.commits[from] = true
	} else {
		inst.prepares[from] = true
	}
	e.advanceLocked(v.Seq, inst)
}

// advanceLocked moves an instance through prepared → committed →
// executed as quorums fill.
func (e *Engine) advanceLocked(seq uint64, inst *instance) {
	if inst.txs == nil {
		return // still waiting for the pre-prepare
	}
	if !inst.sentComm && len(inst.prepares) >= e.quorum() {
		inst.sentComm = true
		inst.commits[e.ctx.Self] = true
		e.ctx.Endpoint.Broadcast(MsgCommit, &Vote{View: inst.view, Seq: seq, Digest: inst.digest})
	}
	e.executeReadyLocked()
}

// executeReadyLocked executes committed instances in sequence order.
func (e *Engine) executeReadyLocked() {
	for {
		height := e.ctx.Chain.Height()
		inst := e.instances[height+1]
		if inst == nil || inst.txs == nil || len(inst.commits) < e.quorum() {
			return
		}
		head := e.ctx.Chain.Head()
		// Header fields must be identical on every replica so all nodes
		// commit byte-identical blocks: deterministic time, no proposer.
		block := &types.Block{
			Header: types.Header{
				Number:     height + 1,
				ParentHash: head.Hash(),
				Time:       int64(height + 1),
				View:       inst.view,
			},
			Txs: inst.txs,
		}
		if err := e.ctx.Chain.Append(block); err != nil {
			return
		}
		for _, tx := range inst.txs {
			delete(e.assigned, tx.Hash())
		}
		delete(e.instances, height+1)
		e.batchesDone.Add(1)
		e.noteProgressLocked()
	}
}

func (e *Engine) noteProgressLocked() {
	e.lastProgress = time.Now()
	e.failedViews = 0
}

// maybeViewChangeLocked fires a view change when work is outstanding but
// nothing has executed for a full (backed-off) view timeout.
func (e *Engine) maybeViewChangeLocked() {
	outstanding := e.ctx.Pool.Len() > 0 || len(e.instances) > 0
	if !outstanding {
		e.lastProgress = time.Now()
		return
	}
	timeout := e.opts.ViewTimeout << min(e.failedViews, 4)
	if time.Since(e.lastProgress) < timeout {
		return
	}
	e.failedViews++
	e.voteViewLocked(e.view + 1)
	e.lastProgress = time.Now()
}

// voteViewLocked broadcasts (and records) our view-change vote.
func (e *Engine) voteViewLocked(nv uint64) {
	if nv <= e.votedView {
		return
	}
	e.votedView = nv
	vc := &ViewChange{NewView: nv, Height: e.ctx.Chain.Height()}
	for seq, inst := range e.instances {
		if inst.txs != nil && len(inst.prepares) >= e.quorum() {
			vc.Prepared = append(vc.Prepared, PreparedProof{Seq: seq, Digest: inst.digest, Txs: inst.txs})
		}
	}
	e.recordViewVoteLocked(e.ctx.Self, vc)
	e.ctx.Endpoint.Broadcast(MsgViewChange, vc)
}

func (e *Engine) onViewChange(from simnet.NodeID, vc *ViewChange) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if vc.NewView <= e.view {
		return
	}
	e.recordViewVoteLocked(from, vc)
}

func (e *Engine) recordViewVoteLocked(from simnet.NodeID, vc *ViewChange) {
	votes := e.vcVotes[vc.NewView]
	if votes == nil {
		votes = make(map[simnet.NodeID]*ViewChange)
		e.vcVotes[vc.NewView] = votes
	}
	votes[from] = vc

	// Join a view change that f+1 others already voted for: at least one
	// honest replica timed out, so our timer is just late.
	if len(votes) >= e.f+1 && vc.NewView > e.votedView {
		e.voteViewLocked(vc.NewView)
	}
	if len(votes) >= e.quorum() && vc.NewView > e.view {
		e.enterViewLocked(vc.NewView, votes)
	}
}

// enterViewLocked transitions to a new view, carrying over prepared
// batches from the view-change certificates.
func (e *Engine) enterViewLocked(nv uint64, votes map[simnet.NodeID]*ViewChange) {
	e.view = nv
	e.active = true
	e.viewChanges.Add(1)
	e.instances = make(map[uint64]*instance)
	e.assigned = make(map[types.Hash]bool)
	e.noteProgressLocked()

	// Clean up stale vote sets.
	for v := range e.vcVotes {
		if v <= nv {
			delete(e.vcVotes, v)
		}
	}

	if e.primaryOf(nv) != e.ctx.Self {
		return
	}
	// New primary: re-propose prepared batches from the certificates,
	// highest-seq wins per slot, then resume normal proposing.
	height := e.ctx.Chain.Height()
	carried := make(map[uint64]PreparedProof)
	for _, vc := range votes {
		for _, p := range vc.Prepared {
			if p.Seq > height {
				carried[p.Seq] = p
			}
		}
	}
	e.nextSeq = height + 1
	seqs := make([]uint64, 0, len(carried))
	for seq := range carried {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		p := carried[seq]
		inst := e.getInstance(seq, nv, p.Txs)
		inst.prepares[e.ctx.Self] = true
		for _, tx := range p.Txs {
			e.assigned[tx.Hash()] = true
		}
		e.ctx.Endpoint.Broadcast(MsgPrePrepare, &PrePrepare{View: nv, Seq: seq, Txs: p.Txs})
		if seq >= e.nextSeq {
			e.nextSeq = seq + 1
		}
		e.advanceLocked(seq, inst)
	}
	e.maybeProposeLocked()
}
