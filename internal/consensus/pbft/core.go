package pbft

import (
	"cmp"
	"slices"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/internal/types"
)

type instance struct {
	view uint64
	txs  []*types.Transaction
	// votes is the instance's vote set: by replica, in core.peers'
	// order, which of prepare and commit it has sent. prepares and
	// commits count the replicas with each.
	votes    []voted
	prepares int
	commits  int
	sentPrep bool
	sentComm bool
}

// voted is one replica's entry in an instance's vote set.
type voted uint8

const (
	votedPrepare voted = 1 << iota
	votedCommit
)

// core is one PBFT replica's protocol state and logic, and nothing
// else: no lock, no goroutine, no clock. Everything happens inside
// step(now, msg), which sends through ctx.Endpoint, applies through
// ctx.Chain and returns the next instant the replica needs to run.
type core struct {
	ctx  consensus.Context
	opts Options
	f    int
	// peers sorted for deterministic primary rotation.
	peers []simnet.NodeID

	view         uint64
	active       bool // false while a view change is in progress
	instances    map[uint64]*instance
	assigned     map[types.Hash]bool // txs already batched (primary)
	nextSeq      uint64
	vcVotes      map[uint64]map[simnet.NodeID]*ViewChange
	votedView    uint64
	tick         time.Time // next batch/view-timeout tick
	lastProgress time.Time
	failedViews  uint64 // consecutive views without progress (backoff)
	viewChanges  uint64
	batchesDone  uint64
	pick         []*types.Transaction // maybePropose's scratch; a pre-prepare carries a copy
}

func newCore(ctx consensus.Context, opts Options, now time.Time) *core {
	peers := append([]simnet.NodeID(nil), ctx.Peers...)
	slices.Sort(peers)
	return &core{
		ctx:          ctx,
		opts:         opts,
		f:            (len(peers) - 1) / 3,
		peers:        peers,
		active:       true,
		instances:    make(map[uint64]*instance),
		assigned:     make(map[types.Hash]bool),
		vcVotes:      make(map[uint64]map[simnet.NodeID]*ViewChange),
		tick:         now.Add(opts.BatchTimeout),
		lastProgress: now,
	}
}

func (c *core) quorum() int { return 2*c.f + 1 }

func (c *core) primaryOf(view uint64) simnet.NodeID {
	return c.peers[int(view)%len(c.peers)]
}

// step advances the replica to now on one event: consensus.Wake (the
// timer) or a delivered message. Corrupted messages fail authentication
// and are discarded — the paper's "random response" Byzantine failure
// mode. It returns the next tick: every BatchTimeout the primary may
// open one instance and every replica checks its view timeout.
func (c *core) step(now time.Time, msg simnet.Message) time.Time {
	if consensus.HandleSync(c.ctx, msg) {
		c.noteProgress(now)
		c.executeReady(now)
	} else if !msg.Corrupt {
		switch m := msg.Payload.(type) {
		case nil: // consensus.Wake
			if !now.Before(c.tick) {
				// Drift-free cadence, unless a whole tick behind.
				if c.tick = c.tick.Add(c.opts.BatchTimeout); !c.tick.After(now) {
					c.tick = now.Add(c.opts.BatchTimeout)
				}
				c.maybePropose(now)
				c.maybeViewChange(now)
			}
		case *PrePrepare:
			c.onPrePrepare(now, msg.From, m)
		case *Vote:
			c.onVote(now, msg.From, m, msg.Type == MsgCommit)
		case *ViewChange:
			c.onViewChange(now, msg.From, m)
		}
	}
	return c.tick
}

// maybePropose lets the primary open one new instance per batch tick
// (Fabric batches on a size/timeout trigger; one batch per timeout is
// what yields the paper's ~3 blocks/s at batch size 500).
func (c *core) maybePropose(now time.Time) {
	if !c.active || c.primaryOf(c.view) != c.ctx.Self {
		return
	}
	height := c.ctx.Chain.Height()
	if c.nextSeq <= height {
		c.nextSeq = height + 1
	}
	if int(c.nextSeq-height)-1 < window {
		c.pick = consensus.PickBatch(c.pick[:0], c.ctx.Pool, c.opts.BatchSize, c.assigned)
		if len(c.pick) == 0 {
			return
		}
		txs := slices.Clone(c.pick)
		seq := c.nextSeq
		c.nextSeq++
		for _, tx := range txs {
			c.assigned[tx.Hash()] = true
			c.ctx.Tracer.Stamp(tx.Hash(), trace.StagePropose)
		}
		pp := &PrePrepare{View: c.view, Seq: seq, Txs: txs}
		inst := c.getInstance(seq, c.view, txs)
		c.vote(inst, c.ctx.Self, votedPrepare) // primary's pre-prepare counts
		c.ctx.Endpoint.Broadcast(MsgPrePrepare, pp)
		// Tiny deployments (n ≤ 3 ⇒ f = 0) reach quorum on the primary's
		// own messages; advance immediately rather than waiting for
		// network echoes that never come.
		c.advance(now, seq, inst)
	}
}

func (c *core) getInstance(seq, view uint64, txs []*types.Transaction) *instance {
	inst := c.instances[seq]
	if inst == nil || inst.view != view {
		inst = &instance{view: view, votes: make([]voted, len(c.peers))}
		c.instances[seq] = inst
	}
	if txs != nil {
		inst.txs = txs
	}
	return inst
}

// vote adds from's vote of one kind to inst's vote set. A repeated vote
// counts once; a sender outside the peer set is not counted.
func (c *core) vote(inst *instance, from simnet.NodeID, kind voted) {
	i, ok := slices.BinarySearch(c.peers, from)
	if !ok || inst.votes[i]&kind != 0 {
		return
	}
	inst.votes[i] |= kind
	if kind == votedPrepare {
		inst.prepares++
	} else {
		inst.commits++
	}
}

func (c *core) onPrePrepare(now time.Time, from simnet.NodeID, pp *PrePrepare) {
	if pp.View > c.view && c.primaryOf(pp.View) == from {
		// A restarted replica wakes up in a stale view while the cluster
		// has moved on; the primary of the newer view is speaking, so
		// adopt its view (honest-node simplification — a Byzantine-safe
		// replica would demand the new-view certificate first).
		c.view = pp.View
		c.active = true
		c.votedView = max(c.votedView, pp.View)
		c.instances = make(map[uint64]*instance)
		c.assigned = make(map[types.Hash]bool)
		c.noteProgress(now)
	}
	if pp.View != c.view || !c.active || c.primaryOf(pp.View) != from {
		return
	}
	height := c.ctx.Chain.Height()
	if pp.Seq <= height {
		return // already executed
	}
	if pp.Seq > height+4*window {
		// Far ahead: we missed batches; catch up from the primary.
		consensus.RequestSync(c.ctx, from)
		return
	}
	inst := c.getInstance(pp.Seq, pp.View, pp.Txs)
	c.vote(inst, from, votedPrepare) // the pre-prepare is the primary's prepare
	if !inst.sentPrep {
		inst.sentPrep = true
		c.vote(inst, c.ctx.Self, votedPrepare)
		c.ctx.Endpoint.Broadcast(MsgPrepare, &Vote{View: pp.View, Seq: pp.Seq})
	}
	c.advance(now, pp.Seq, inst)
}

func (c *core) onVote(now time.Time, from simnet.NodeID, v *Vote, isCommit bool) {
	if v.View != c.view || !c.active || v.Seq <= c.ctx.Chain.Height() {
		return
	}
	inst := c.getInstance(v.Seq, v.View, nil)
	if isCommit {
		c.vote(inst, from, votedCommit)
	} else {
		c.vote(inst, from, votedPrepare)
	}
	c.advance(now, v.Seq, inst)
}

// advance moves an instance through prepared → committed → executed as
// quorums fill.
func (c *core) advance(now time.Time, seq uint64, inst *instance) {
	if inst.txs == nil {
		return // still waiting for the pre-prepare
	}
	if !inst.sentComm && inst.prepares >= c.quorum() {
		inst.sentComm = true
		c.vote(inst, c.ctx.Self, votedCommit)
		c.ctx.Endpoint.Broadcast(MsgCommit, &Vote{View: inst.view, Seq: seq})
	}
	c.executeReady(now)
}

// executeReady executes committed instances in sequence order.
func (c *core) executeReady(now time.Time) {
	for {
		height := c.ctx.Chain.Height()
		inst := c.instances[height+1]
		if inst == nil || inst.txs == nil || inst.commits < c.quorum() {
			return
		}
		// Header fields must be identical on every replica so all nodes
		// commit byte-identical blocks: deterministic time, no proposer.
		block, err := c.ctx.Chain.Build(inst.txs, ledger.Meta{Time: int64(height + 1), View: inst.view})
		if err != nil || c.ctx.Chain.Append(block) != nil {
			return
		}
		for _, tx := range inst.txs {
			delete(c.assigned, tx.Hash())
		}
		delete(c.instances, height+1)
		c.batchesDone++
		c.noteProgress(now)
	}
}

func (c *core) noteProgress(now time.Time) {
	c.lastProgress = now
	c.failedViews = 0
}

// maybeViewChange fires a view change when work is outstanding but
// nothing has executed for a full (backed-off) view timeout.
func (c *core) maybeViewChange(now time.Time) {
	outstanding := c.ctx.Pool.Len() > 0 || len(c.instances) > 0
	if !outstanding {
		c.lastProgress = now
		return
	}
	timeout := c.opts.ViewTimeout << min(c.failedViews, 4)
	if now.Sub(c.lastProgress) < timeout {
		return
	}
	c.failedViews++
	c.voteView(now, c.view+1)
	c.lastProgress = now
}

// voteView broadcasts (and records) our view-change vote.
func (c *core) voteView(now time.Time, nv uint64) {
	if nv <= c.votedView {
		return
	}
	c.votedView = nv
	vc := &ViewChange{NewView: nv}
	for seq, inst := range c.instances {
		if inst.txs != nil && inst.prepares >= c.quorum() {
			vc.Prepared = append(vc.Prepared, PreparedProof{View: inst.view, Seq: seq, Txs: inst.txs})
		}
	}
	c.recordViewVote(now, c.ctx.Self, vc)
	c.ctx.Endpoint.Broadcast(MsgViewChange, vc)
}

func (c *core) onViewChange(now time.Time, from simnet.NodeID, vc *ViewChange) {
	if vc.NewView <= c.view {
		return
	}
	c.recordViewVote(now, from, vc)
}

func (c *core) recordViewVote(now time.Time, from simnet.NodeID, vc *ViewChange) {
	votes := c.vcVotes[vc.NewView]
	if votes == nil {
		votes = make(map[simnet.NodeID]*ViewChange)
		c.vcVotes[vc.NewView] = votes
	}
	votes[from] = vc

	// Join a view change that f+1 others already voted for: at least one
	// honest replica timed out, so our timer is just late.
	if len(votes) >= c.f+1 && vc.NewView > c.votedView {
		c.voteView(now, vc.NewView)
	}
	if len(votes) >= c.quorum() && vc.NewView > c.view {
		c.enterView(now, vc.NewView, votes)
	}
}

// enterView transitions to a new view, carrying over prepared batches
// from the view-change certificates.
func (c *core) enterView(now time.Time, nv uint64, votes map[simnet.NodeID]*ViewChange) {
	c.view = nv
	c.active = true
	c.viewChanges++
	c.instances = make(map[uint64]*instance)
	c.assigned = make(map[types.Hash]bool)
	c.noteProgress(now)

	// Clean up stale vote sets.
	for v := range c.vcVotes {
		if v <= nv {
			delete(c.vcVotes, v)
		}
	}

	if c.primaryOf(nv) != c.ctx.Self {
		return
	}
	// New primary: re-propose prepared batches from the certificates, per
	// seq the one prepared in the highest view (a primary pre-prepares one
	// batch per view and seq), then resume normal proposing.
	height := c.ctx.Chain.Height()
	var carried []PreparedProof
	for _, vc := range votes {
		for _, p := range vc.Prepared {
			if p.Seq > height {
				carried = append(carried, p)
			}
		}
	}
	slices.SortFunc(carried, func(a, b PreparedProof) int { return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(b.View, a.View)) })
	c.nextSeq = height + 1
	for i, p := range carried {
		if i > 0 && carried[i-1].Seq == p.Seq {
			continue
		}
		inst := c.getInstance(p.Seq, nv, p.Txs)
		c.vote(inst, c.ctx.Self, votedPrepare)
		for _, tx := range p.Txs {
			c.assigned[tx.Hash()] = true
		}
		c.ctx.Endpoint.Broadcast(MsgPrePrepare, &PrePrepare{View: nv, Seq: p.Seq, Txs: p.Txs})
		c.nextSeq = max(c.nextSeq, p.Seq+1)
		c.advance(now, p.Seq, inst)
	}
	c.maybePropose(now)
}
