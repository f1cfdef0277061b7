package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/plain_session.golden from this build")

const (
	plainSessionGolden = "testdata/plain_session.golden"
	// The same script recorded from the last build whose compressor
	// parsed greedily (insert every byte). Never rewritten.
	greedyParseGolden = "testdata/plain_session_greedy_parse.golden"
)

// plainScript is the fixed un-stamped session the golden pins: full
// writes under every scheme (LZ, raw, zero), a two-extent range write,
// three reads coalesced into one frame (a same-DS delta, a DS switch, a
// size change; an LZ, a zero and a raw segment back), and a two-hop
// chase. Every step waits for its reply, so both streams are
// deterministic down to the tags.
func plainScript(t *testing.T, cl *PipelinedClient) {
	t.Helper()
	node := compressible(512)
	binary.LittleEndian.PutUint64(node[8:], 1<<63|uint64(1)<<48|2*512) // -> ds1[2], never written
	raw := incompressible(192, 7)
	for _, w := range []struct {
		ds, idx int
		img     []byte
	}{{1, 1, node}, {2, 7, raw}, {2, 8, make([]byte, 256)}} {
		if err := cl.WriteObj(w.ds, w.idx, w.img); err != nil {
			t.Fatal(err)
		}
	}
	copy(node[64:], "dirtied!")
	copy(node[400:], "and sixteen more")
	errCh := make(chan error, 1)
	cl.IssueWriteRanges(1, 1, node, []rdma.Extent{{Off: 64, Len: 8}, {Off: 400, Len: 16}}, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// The three reads enter the queue under one lock hold, so the flusher
	// finds them together and they share a frame.
	want := [][]byte{node, make([]byte, 512), raw}
	var reads []*pipeOp
	for i, k := range [][2]uint32{{1, 1}, {1, 2}, {2, 7}} {
		reads = append(reads, &pipeOp{
			ds: k[0], idx: k[1], size: uint32(len(want[i])),
			dst: make([]byte, len(want[i])), ch: make(chan error, 1),
		})
	}
	cl.mu.Lock()
	cl.queue = append(cl.queue, reads...)
	cl.cond.Broadcast()
	cl.mu.Unlock()
	for i, op := range reads {
		if err := <-op.ch; err != nil || !bytes.Equal(op.dst, want[i]) {
			t.Fatalf("read %d: err=%v, image match=%v", i, err, bytes.Equal(op.dst, want[i]))
		}
	}

	res, err := cl.Chase(rdma.ChaseReq{DS: 1, Start: 1, ObjSize: 512, NextOff: 8, Hops: 4})
	if err != nil || res.Status != rdma.ChaseDone || len(res.Hops) != 2 || !bytes.Equal(res.Hops[0].Data, node) {
		t.Fatalf("chase: %+v hops, status %d, err %v", len(res.Hops), res.Status, err)
	}
}

// TestPlainFramesAreByteStable pins the un-stamped encoding: the script
// above, on an untraced default session, must put exactly the bytes on
// the wire — both directions, everything after the hello exchange —
// that the golden holds. A diff here is a wire change to plain frames.
// The golden has been re-recorded once since the protocol-version-3
// collapse, when the LZ compressor's parse changed: LZ blocks (and the
// lengths that announce them) moved, nothing else did —
// TestGoldenDiffIsConfinedToLZBlocks holds the two recordings together.
func TestPlainFramesAreByteStable(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	c2s, s2c := recordedStreams(t, PipelineOpts{}, func(cl *PipelinedClient) { plainScript(t, cl) })
	got := "c2s " + hex.EncodeToString(c2s) + "\ns2c " + hex.EncodeToString(s2c) + "\n"
	if *updateGolden {
		if err := os.WriteFile(plainSessionGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(plainSessionGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			n := 0
			for i < len(gl) && n < len(gl[i]) && n < len(wl[i]) && gl[i][n] == wl[i][n] {
				n++
			}
			t.Fatalf("stream %q diverges from the golden at hex offset %d (%d vs %d hex chars)",
				wl[i][:3], n-4, len(gl[i]), len(wl[i]))
		}
	}
	t.Fatal("recorded streams differ from the golden")
}

// canonicalFrames parses one recorded direction into a line per frame in
// which every LZ block is replaced by the plaintext it decodes to, so two
// recordings that differ only in how a compressor parsed its input
// canonicalise to the same lines. (rdma.LZDecompress is the decoder
// here; rdma's FuzzLZ holds it verdict for verdict to the byte-wise
// reference decoder that defines the format.)
func canonicalFrames(t *testing.T, hexStream string) []string {
	t.Helper()
	stream, err := hex.DecodeString(hexStream)
	if err != nil {
		t.Fatal(err)
	}
	plain := func(scheme uint8, rawLen uint32, data []byte) []byte {
		if scheme != rdma.SchemeLZ {
			return data
		}
		out := make([]byte, rawLen)
		if err := rdma.LZDecompress(out, data); err != nil {
			t.Fatalf("recorded LZ block does not decode: %v", err)
		}
		return out
	}
	var lines []string
	for r := bytes.NewReader(stream); r.Len() > 0; {
		f, err := rdma.ReadFrameOpts(r, true, false)
		if err != nil {
			t.Fatalf("recorded stream does not parse after %d frames: %v", len(lines), err)
		}
		line := fmt.Sprintf("%s tag=%d", f.Op, f.Tag)
		switch f.Op {
		case rdma.OpWriteBatchC:
			reqs, _, err := rdma.DecodeWriteBatchCInto(f.Payload, nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range reqs {
				line += fmt.Sprintf(" {%d/%d obj=%d ext=%v scheme=%d raw=%d %x}",
					q.DS, q.Idx, q.ObjSize, q.Extents, q.Scheme, q.RawLen, plain(q.Scheme, q.RawLen, q.Data))
			}
		case rdma.OpDataBatchC:
			segs, err := rdma.DecodeDataBatchCInto(f.Payload, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, sg := range segs {
				line += fmt.Sprintf(" {scheme=%d raw=%d %x}", sg.Scheme, sg.RawLen, plain(sg.Scheme, sg.RawLen, sg.Data))
			}
		default:
			line += fmt.Sprintf(" %x", f.Payload)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestGoldenDiffIsConfinedToLZBlocks: the current golden and the one
// recorded before the compressor's parse changed carry the same frames,
// tuples, schemes, lengths and plaintext in the same order. The only
// bytes that differ between them are inside LZ blocks (and the varint
// that gives each block's length).
func TestGoldenDiffIsConfinedToLZBlocks(t *testing.T) {
	load := func(path string) map[string][]string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dirs := map[string][]string{}
		for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			dir, hexStream, ok := strings.Cut(l, " ")
			if !ok {
				t.Fatalf("%s: malformed line %q", path, l)
			}
			dirs[dir] = canonicalFrames(t, hexStream)
		}
		return dirs
	}
	now, then := load(plainSessionGolden), load(greedyParseGolden)
	for _, dir := range []string{"c2s", "s2c"} {
		if len(now[dir]) == 0 || len(now[dir]) != len(then[dir]) {
			t.Fatalf("%s: %d frames now, %d in the greedy-parse recording", dir, len(now[dir]), len(then[dir]))
		}
		for i := range now[dir] {
			if now[dir][i] != then[dir][i] {
				t.Fatalf("%s frame %d differs beyond its LZ blocks:\n now  %s\n then %s", dir, i, now[dir][i], then[dir][i])
			}
		}
	}
}
