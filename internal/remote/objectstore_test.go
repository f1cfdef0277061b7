package remote

import (
	"bytes"
	"sync"
	"testing"
)

// TestObjectStoreWriteInPlace pins the same-size overwrite path: a
// write that does not change an object's length allocates nothing, and
// a length change still replaces the image (shorter reads zero-fill).
func TestObjectStoreWriteInPlace(t *testing.T) {
	s := NewObjectStore()
	img := bytes.Repeat([]byte{0xA1}, 4096)
	s.Write(1, 2, img)
	s.WriteEpoch(1, 3, 1, img)
	var epoch uint64 = 1
	if n := testing.AllocsPerRun(200, func() {
		img[0]++
		s.Write(1, 2, img)
		epoch++
		if !s.WriteEpoch(1, 3, epoch, img) {
			t.Fatal("WriteEpoch with a rising epoch did not apply")
		}
	}); n != 0 {
		t.Fatalf("same-size Write+WriteEpoch allocate %.1f times per run, want 0", n)
	}
	for _, idx := range []uint32{2, 3} {
		if got := s.Read(1, idx, 4096); !bytes.Equal(got, img) {
			t.Fatalf("object %d does not hold the last image written", idx)
		}
	}
	// The store copied: scribbling on the caller's buffer changes nothing.
	want := append([]byte(nil), img...)
	clear(img)
	if got := s.Read(1, 2, 4096); !bytes.Equal(got, want) {
		t.Fatal("stored image aliases the caller's buffer")
	}

	s.Write(1, 2, []byte("short"))
	got := s.Read(1, 2, 8)
	if !bytes.Equal(got, []byte("short\x00\x00\x00")) {
		t.Fatalf("after shrinking write: %q", got)
	}
	s.Write(1, 2, want)
	if got := s.Read(1, 2, 4096); !bytes.Equal(got, want) {
		t.Fatal("growing write did not replace the image")
	}
	if s.WriteEpoch(1, 3, epoch-1, []byte("stale")) {
		t.Fatal("stale epoch applied")
	}
	if got := s.Read(1, 3, 4096); !bytes.Equal(got, want) {
		t.Fatal("rejected stale write modified the stored image")
	}
}

// TestObjectStoreInPlaceWriteIsAtomic runs readers against writers that
// overwrite one key in place: every read must observe one whole image,
// never a mix of two (run under -race, this also proves the in-place
// copy is ordered with every reader's copy-out).
func TestObjectStoreInPlaceWriteIsAtomic(t *testing.T) {
	s := NewObjectStore()
	images := [][]byte{bytes.Repeat([]byte{0x11}, 4096), bytes.Repeat([]byte{0xEE}, 4096)}
	s.Write(0, 0, images[0])
	s.WriteEpoch(0, 1, 0, images[0])
	const rounds = 2000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.Write(0, 0, images[(i+w)%2])
				s.WriteEpoch(0, 1, uint64(i), images[(i+w)%2])
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, 4096)
			for i := 0; i < rounds; i++ {
				s.ReadInto(0, 0, dst)
				if !bytes.Equal(dst, images[0]) && !bytes.Equal(dst, images[1]) {
					t.Error("ReadInto observed a torn image")
					return
				}
				s.ReadEpochInto(0, 1, dst)
				if !bytes.Equal(dst, images[0]) && !bytes.Equal(dst, images[1]) {
					t.Error("ReadEpochInto observed a torn image")
					return
				}
			}
		}()
	}
	wg.Wait()
}
