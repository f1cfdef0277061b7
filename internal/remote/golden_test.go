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
	// Earlier recordings, never rewritten: the script as it stood (without
	// its last step, the packed-words object) from the last build whose
	// compressor parsed greedily (insert every byte), and from the last
	// build of protocol version 3, which had three payload schemes; and
	// the whole script from the last build of protocol version 4, which
	// packed words in whole byte lanes.
	greedyParseGolden = "testdata/plain_session_greedy_parse.golden"
	protoV3Golden     = "testdata/plain_session_v3.golden"
	protoV4Golden     = "testdata/plain_session_v4.golden"
)

// wordsObject is the script's packed-words object: 128 bytes of small
// int64s, every third one zero.
func wordsObject() []byte {
	b := make([]byte, 128)
	for i := 0; i < 16; i++ {
		if i%3 != 0 {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(300*i+7))
		}
	}
	return b
}

// plainScript is the fixed un-stamped session the golden pins: full
// writes under LZ, raw and zero, a two-extent range write, three reads
// coalesced into one frame (a same-DS delta, a DS switch, a size change;
// an LZ, a zero and a raw segment back), a two-hop chase, and last — it
// was added with the scheme, and the older recordings end before it — a
// packed-words write and the read that is served the stored block. Every
// step waits for its reply, so both streams are deterministic down to
// the tags.
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

	words := wordsObject()
	if err := cl.WriteObj(3, 0, words); err != nil {
		t.Fatal(err)
	}
	if got := make([]byte, len(words)); cl.ReadObj(3, 0, got) != nil || !bytes.Equal(got, words) {
		t.Fatal("the packed-words object did not read back")
	}
}

// TestPlainFramesAreByteStable pins the un-stamped encoding: the script
// above, on an untraced default session, must put exactly the bytes on
// the wire — both directions, everything after the hello exchange —
// that the golden holds. A diff here is a wire change to plain frames.
// The golden has been re-recorded three times since the protocol-version-3
// collapse: when the LZ compressor's parse changed — LZ blocks (and the
// lengths that announce them) moved, nothing else did — for protocol
// version 4, when the script gained its packed-words step and nothing
// recorded before it moved at all, and for protocol version 5, when that
// step's block went from byte lanes to bit fields.
// TestGoldenDiffIsConfinedToPackedBlocks holds the recordings together.
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

// unpackLaneWords is protocol version 4's SchemeWords decoder, kept here
// only to read plain_session_v4.golden: lo, w, one bitmap bit per word,
// then w bytes per set bit landing in lanes lo.. of that word.
func unpackLaneWords(t *testing.T, rawLen uint32, block []byte) []byte {
	t.Helper()
	out := make([]byte, rawLen)
	lo, w, in := int(block[0]), int(block[1]), 2+int(rawLen)/64
	for word := 0; word < int(rawLen)/8; word++ {
		if block[2+word/8]>>(word%8)&1 != 0 {
			copy(out[8*word+lo:8*word+lo+w], block[in:in+w])
			in += w
		}
	}
	if rawLen%64 != 0 || w < 1 || w > 4 || lo+w > 8 || in != len(block) {
		t.Fatalf("recorded lane-packed block is malformed: lo=%d w=%d, %d of %d bytes used for %d raw", lo, w, in, len(block), rawLen)
	}
	return out
}

// unpackBitWords decodes a current SchemeWords block with rdma.UnpackWords
// (rdma's FuzzWords holds it to the bit-at-a-time reference decoder that
// defines the format).
func unpackBitWords(t *testing.T, rawLen uint32, block []byte) []byte {
	t.Helper()
	out := make([]byte, rawLen)
	if err := rdma.UnpackWords(out, block); err != nil {
		t.Fatalf("recorded bit-packed block does not decode: %v", err)
	}
	return out
}

// canonicalFrames parses one recorded direction into a line per frame in
// which every compressed block is replaced by the plaintext it decodes
// to and its scheme by "packed", so two recordings that differ only in
// how an object was compressed canonicalise to the same lines. words is
// the SchemeWords decoder of the recording's protocol version.
// (rdma.LZDecompress is the LZ decoder here; rdma's FuzzLZ holds it
// verdict for verdict to the byte-wise reference decoder that defines the
// format.)
func canonicalFrames(t *testing.T, hexStream string, words func(*testing.T, uint32, []byte) []byte) []string {
	t.Helper()
	stream, err := hex.DecodeString(hexStream)
	if err != nil {
		t.Fatal(err)
	}
	plain := func(scheme uint8, rawLen uint32, data []byte) string {
		switch scheme {
		case rdma.SchemeLZ:
			out := make([]byte, rawLen)
			if err := rdma.LZDecompress(out, data); err != nil {
				t.Fatalf("recorded LZ block does not decode: %v", err)
			}
			return fmt.Sprintf("scheme=packed raw=%d %x", rawLen, out)
		case rdma.SchemeWords:
			return fmt.Sprintf("scheme=packed raw=%d %x", rawLen, words(t, rawLen, data))
		}
		return fmt.Sprintf("scheme=%d raw=%d %x", scheme, rawLen, data)
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
				line += fmt.Sprintf(" {%d/%d obj=%d ext=%v %s}", q.DS, q.Idx, q.ObjSize, q.Extents, plain(q.Scheme, q.RawLen, q.Data))
			}
		case rdma.OpDataBatchC:
			segs, err := rdma.DecodeDataBatchCInto(f.Payload, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, sg := range segs {
				line += fmt.Sprintf(" {%s}", plain(sg.Scheme, sg.RawLen, sg.Data))
			}
		default:
			line += fmt.Sprintf(" %x", f.Payload)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestGoldenDiffIsConfinedToPackedBlocks: the current golden and each
// earlier recording carry the same frames, tuples, lengths and plaintext
// in the same order for as long as the earlier one runs — the only bytes
// that may differ between them are inside compressed blocks (and the
// scheme and length that announce each). What the current golden has
// beyond the recordings that predate it is the script's last step, frame
// for frame: the packed-words object written as one packed tuple and
// acknowledged, then read and served as one packed segment. (The hello
// exchange is not part of any recording; TestHandshakeMismatchIsDefinitive
// and TestHandshakeRefusesTheLaneWordsVersion own the version.)
func TestGoldenDiffIsConfinedToPackedBlocks(t *testing.T) {
	load := func(path string, words func(*testing.T, uint32, []byte) []byte) map[string][]string {
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
			dirs[dir] = canonicalFrames(t, hexStream, words)
		}
		return dirs
	}
	now := load(plainSessionGolden, unpackBitWords)
	words := fmt.Sprintf("scheme=packed raw=128 %x", wordsObject())
	lastStep := map[string][]string{
		"c2s": {"WRITEBATCH-C tag=7 {3/0 obj=0 ext=[] " + words + "}", "READBATCH-C tag=8 "},
		"s2c": {"ACKBATCH-C tag=7 ", "DATABATCH-C tag=8 {" + words + "}"},
	}
	for dir, step := range lastStep {
		for i, want := range step {
			if at := len(now[dir]) - len(step) + i; at < 0 || !strings.HasPrefix(now[dir][at], want) {
				t.Fatalf("%s frame %d is not the script's last step:\n want %s…", dir, at, want)
			}
		}
	}
	for _, rec := range []struct {
		path     string
		lastStep bool // the recording predates the script's last step
	}{
		{greedyParseGolden, true},
		{protoV3Golden, true},
		{protoV4Golden, false},
	} {
		then := load(rec.path, unpackLaneWords) // all older than protocol version 5
		for _, dir := range []string{"c2s", "s2c"} {
			n := len(then[dir])
			if rec.lastStep {
				n += len(lastStep[dir])
			}
			if len(then[dir]) == 0 || len(now[dir]) != n {
				t.Fatalf("%s: %d frames now, %d in %s", dir, len(now[dir]), len(then[dir]), rec.path)
			}
			for i := range then[dir] {
				if now[dir][i] != then[dir][i] {
					t.Fatalf("%s frame %d differs from %s beyond its compressed blocks:\n now  %s\n then %s", dir, i, rec.path, now[dir][i], then[dir][i])
				}
			}
		}
	}
}
