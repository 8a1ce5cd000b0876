package cluster

// Sender-side journal replication: every tick, each node streams its
// store's new "a/" segments to the ring standbys for its shard. Agent
// rows are whole-row last-writer-wins, so a tick carries each row touched
// since the standby's cursor once, as it stands now (store.Since), however
// often it was written in between. The cursor is (store epoch, journal
// seq); any mismatch on the receiver — restart on either side, outrun
// segment tail, first contact — degrades to a full snapshot, which is
// always safe for the same reason.

import (
	"context"
	"strings"

	"repro/internal/keylime/store"
)

func (n *Node) replicateTick(ctx context.Context) {
	n.mu.Lock()
	if n.closed || n.ringC == nil {
		n.mu.Unlock()
		return
	}
	standbys := n.ringC.StandbysOf(n.cfg.NodeID, n.cfg.Replicas)
	cursors := make(map[string]replCursor, len(standbys))
	for _, s := range standbys {
		if c := n.repl[s]; c != nil {
			cursors[s] = *c
		}
	}
	n.mu.Unlock()

	st := n.cfg.Store
	for _, s := range standbys {
		c := cursors[s]
		if c.known && st.Seq() == c.acked {
			continue // standby is current
		}
		segs, ok := st.Since(c.acked)
		if !ok {
			// The in-memory tail no longer covers the standby's cursor
			// (it fell too far behind, or our store reopened with a new
			// epoch): resync via snapshot.
			n.sendSnapshot(ctx, s)
			continue
		}
		upTo := c.acked
		if len(segs) > 0 {
			upTo = segs[len(segs)-1].Seq
		}
		req := ReplicateReq{
			SrcEpoch: st.Epoch(),
			FromSeq:  c.acked,
			UpTo:     upTo,
			Segments: filterAgentSegments(segs),
		}
		if err := n.sealReplicate(&req); err != nil {
			n.logf("cluster %s: %v", n.cfg.NodeID, err)
			continue
		}
		var resp ReplicateResp
		if err := call(ctx, n.cfg.Transport, s, n.cfg.NodeID, MsgReplicate, req, &resp); err != nil {
			continue // unreachable; retry next tick
		}
		if resp.NeedSnapshot {
			n.sendSnapshot(ctx, s)
			continue
		}
		n.setReplCursor(s, resp.AckSeq)
	}
}

func (n *Node) sendSnapshot(ctx context.Context, standby string) {
	st := n.cfg.Store
	all, seq := st.SnapshotAll()
	snap := make(map[string][]byte)
	for k, v := range all {
		if strings.HasPrefix(k, agentPrefix) {
			snap[k] = v
		}
	}
	req := ReplicateReq{SrcEpoch: st.Epoch(), UpTo: seq, Snapshot: snap, IsSnap: true}
	if err := n.sealReplicate(&req); err != nil {
		n.logf("cluster %s: %v", n.cfg.NodeID, err)
		return
	}
	var resp ReplicateResp
	if err := call(ctx, n.cfg.Transport, standby, n.cfg.NodeID, MsgReplicate, req, &resp); err != nil {
		return
	}
	n.setReplCursor(standby, resp.AckSeq)
	n.logf("cluster %s: snapshot resync to %s at seq %d (%d rows)", n.cfg.NodeID, standby, seq, len(snap))
}

func (n *Node) setReplCursor(standby string, acked uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.repl[standby] = &replCursor{acked: acked, known: true}
}

func filterAgentSegments(segs []store.Segment) []store.Segment {
	out := segs[:0:0]
	for _, s := range segs {
		if strings.HasPrefix(s.Key, agentPrefix) {
			out = append(out, s)
		}
	}
	return out
}
