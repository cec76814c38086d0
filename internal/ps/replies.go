package ps

import (
	"math/bits"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// Replies at sparse cost. A shard keeps a change log, the index lists of its
// most recent sparse applies, and records, per worker that speaks the codec
// path, the version of the last block it sent that worker. Every block reply
// to such a worker (a push reply that carries the next pull, a dedup or clone
// re-ack, the answer to a PullReqV2) is then a delta of the entries written
// since the block the worker holds when the worker holds the recorded
// version, the log reaches back to it, and the delta encodes shorter than the
// block. Otherwise the full block goes out as it always did. A worker speaks
// the codec path once it sends a PushReqV2 or a PullReqV2, which only a codec
// run sends, so no reply of a raw run changes.

// changeLog lists the indices each recent sparse apply wrote, oldest first.
// It retains at most n indices in all, n the block length, since a reply
// listing more would cost as much as the block, and at most n entries, so a
// stream of empty pushes cannot grow it. A dense write is not logged:
// the version it takes leaves a gap, and the log covers nothing across a gap.
type changeLog struct {
	top  int64   // the version the newest entry brought the block to
	idx  []int32 // the entries' indices, concatenated
	ends []int   // ends[i] is where entry i ends in idx
	drop int     // entries before drop are no longer retained
}

// start returns where entry i begins in idx.
func (l *changeLog) start(i int) int {
	if i == 0 {
		return 0
	}
	return l.ends[i-1]
}

// add logs the indices written by the apply that brought the block to
// version, at most n of them (a push lists each index once). After a gap,
// an apply the log did not see, the log restarts from this entry.
func (l *changeLog) add(version int64, idx []int32, n int) {
	if version != l.top+1 {
		l.idx, l.ends, l.drop = l.idx[:0], l.ends[:0], 0
	}
	l.top = version
	l.idx = append(l.idx, idx...)
	l.ends = append(l.ends, len(l.idx))
	for len(l.idx)-l.start(l.drop) > n || len(l.ends)-l.drop > n {
		l.drop++
	}
	// Compact once the dropped prefix outgrows the block, so the copy costs
	// amortized O(1) per logged entry and index.
	if s := l.start(l.drop); s > n || l.drop > n {
		l.idx = l.idx[:copy(l.idx, l.idx[s:])]
		kept := l.ends[:copy(l.ends, l.ends[l.drop:])]
		for i := range kept {
			kept[i] -= s
		}
		l.ends, l.drop = kept, 0
	}
}

// since returns the retained entries written after version have, as one
// range of idx, or false when the log does not reach back to have at the
// shard's version.
func (l *changeLog) since(version, have int64) (idx []int32, entries int, ok bool) {
	entries = int(version - have)
	if version != l.top || have > version || entries > len(l.ends)-l.drop {
		return nil, 0, false
	}
	first := len(l.ends) - entries
	return l.idx[l.start(first):], entries, true
}

// deltaReplies is a shard's state for replies at sparse cost.
type deltaReplies struct {
	log changeLog
	// sent holds the workers that speak the codec path, each mapped to 1 +
	// the version of the last block sent it, 0 none. The log is kept while
	// any worker is held.
	sent map[node.ID]int64
	// union collects the ascending union of several entries through bitmap.
	bitmap []uint64
	union  []int32
	// enc and resp are the sender-held delta payload and reply.
	enc  wire.Writer
	resp msg.PullRespV2
}

// speaksCodec notes that from, if it names a worker, speaks the codec path:
// its replies follow the reply rule from now on.
func (d *deltaReplies) speaksCodec(from node.ID) {
	if node.WorkerIndex(from) < 0 {
		return
	}
	if _, ok := d.sent[from]; !ok {
		if d.sent == nil {
			d.sent = make(map[node.ID]int64)
		}
		d.sent[from] = 0
	}
}

// forgetHolders forgets what each worker holds, and the log: after a
// restore or a promotion the version line no longer names the blocks sent
// before, and may run back over versions the log covers, so each worker's
// next block is a full one.
func (s *Server) forgetHolders() {
	d := &s.replies
	clear(d.sent)
	d.log = changeLog{idx: d.log.idx[:0], ends: d.log.ends[:0]}
}

// noteSparse logs the entries idx as what the sparse apply about to be
// acknowledged wrote, when the optimizer writes only those: with momentum it
// writes the whole block, which leaves the log a gap.
func (s *Server) noteSparse(idx []int32) {
	if len(s.replies.sent) > 0 && s.cfg.Optimizer.SparseInPlace() {
		s.replies.log.add(s.version.Load()+1, idx, len(s.params))
	}
}

// sendBlock sends the block at version: the entries written since the block
// at have as a PullRespV2 delta where the reply rule allows, else the whole
// block, as a raw PullRespV2 when v2 (a PullReqV2's answer) and as a PullResp
// otherwise. Every block sent to a worker that speaks the codec path is
// recorded as the one it holds.
func (s *Server) sendBlock(to node.ID, seq uint64, version, have int64, v2 bool) {
	s.pulls.Add(1)
	s.cfg.Obs.Pull()
	d := &s.replies
	sent, held := d.sent[to]
	switch {
	case held && s.encodeDelta(sent, version, have):
		d.resp = msg.PullRespV2{Seq: seq, Version: version, Base: have, Codec: uint8(codec.IDDelta), Payload: d.enc.Bytes()}
		s.send(to, &d.resp, codec.IDDelta, d.enc.Len())
	case v2:
		d.enc.Reset()
		codec.Raw{}.Encode(&d.enc, s.params, nil, nil, nil)
		d.resp = msg.PullRespV2{Seq: seq, Version: version, Base: -1, Codec: uint8(codec.IDRaw), Payload: d.enc.Bytes()}
		s.send(to, &d.resp, codec.IDRaw, d.enc.Len())
	default:
		s.resp = msg.PullResp{Seq: seq, Version: version, Values: s.params}
		s.ctx.Send(to, &s.resp)
	}
	if held {
		d.sent[to] = version + 1
	}
}

// send sends a codec reply and records its encoding.
func (s *Server) send(to node.ID, m *msg.PullRespV2, id codec.ID, size int) {
	if s.cfg.CodecStats != nil {
		s.cfg.CodecStats.RecordEncode(id, 8*len(s.params), size)
	}
	s.ctx.Send(to, m)
}

// encodeDelta encodes into the held writer the entries written since the
// block at have, and reports whether the reply rule allows sending it to a
// worker whose record is sent: it holds the block recorded as sent it, the
// log reaches back to it, and the delta is shorter than the block.
func (s *Server) encodeDelta(sent, version, have int64) bool {
	d := &s.replies
	if have < 0 || sent != have+1 {
		return false
	}
	idx, entries, ok := d.log.since(version, have)
	if !ok {
		return false
	}
	if entries > 1 {
		idx = d.unite(idx, len(s.params))
	}
	d.enc.Reset()
	codec.EncodeEntries(&d.enc, s.params, idx)
	return d.enc.Len() < uvarintLen(uint64(len(s.params)))+8*len(s.params)
}

// uvarintLen returns the encoded length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// unite returns the ascending union of idx, indices below n, built through a
// bitmap that it leaves clear.
func (d *deltaReplies) unite(idx []int32, n int) []int32 {
	words := (n + 63) / 64
	if len(d.bitmap) < words {
		d.bitmap = make([]uint64, words)
	}
	bitmap := d.bitmap[:words]
	for _, i := range idx {
		bitmap[i>>6] |= 1 << (i & 63)
	}
	union := d.union[:0]
	for w, b := range bitmap {
		for ; b != 0; b &= b - 1 {
			union = append(union, int32(w<<6+bits.TrailingZeros64(b)))
		}
		bitmap[w] = 0
	}
	d.union = union
	return union
}
