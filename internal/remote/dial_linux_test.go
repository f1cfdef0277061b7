package remote

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// blackHole returns a loopback address whose SYNs go unanswered: a
// listener with a zero backlog whose one accept slot is already taken.
// Linux drops further SYNs on the floor, which is what a dead route does.
func blackHole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := (&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: sa.(*syscall.SockaddrInet4).Port}).String()
	filler, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })
	return addr
}

// TestDialIsBoundedByTimeout: a black-holed backend costs a dial one
// Timeout, not the kernel's SYN-retry minutes.
func TestDialIsBoundedByTimeout(t *testing.T) {
	addr := blackHole(t)
	done := make(chan error, 1)
	go func() {
		_, err := DialPipelined(addr, PipelineOpts{Timeout: 100 * time.Millisecond})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dial into a black hole succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dial into a black hole is not bounded by Timeout")
	}
}
