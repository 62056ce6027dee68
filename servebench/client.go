package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// client is one keep-alive HTTP/1.1 connection driven by one goroutine.
// It writes requests itself and parses replies with http.ReadResponse, so
// no transport goroutines sit between the load generator and the socket
// and the byte counts are exactly what crossed the wire.
type client struct {
	id      int // which load connection this is
	addr    string
	conn    net.Conn
	cr      countingReader
	br      *bufio.Reader
	wbuf    []byte
	lastOut int64 // bytes of the last request
	lastIn  int64 // bytes of the last reply
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &client{addr: addr, conn: conn}
	c.cr.r = conn
	c.br = bufio.NewReaderSize(&c.cr, 64<<10)
	return c, nil
}

// redial replaces a connection left in an unknown state by a failed call.
func (c *client) redial() error {
	c.conn.Close()
	fresh, err := dial(c.addr)
	if err != nil {
		return err
	}
	fresh.id = c.id
	*c = *fresh
	return nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and returns the reply status and body. reqID goes
// out as the X-Bench-Req header, which joins this request to its handler
// span in a traced run; it is sent in untraced runs too, so both runs put
// the same bytes on the wire.
func (c *client) do(method, path string, body []byte, reqID uint64) (int, []byte, error) {
	before := c.cr.n - int64(c.br.Buffered())
	b := c.wbuf[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nX-Bench-Req: "...)
	b = strconv.AppendUint(b, reqID, 10)
	if method == http.MethodPost {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.wbuf = b
	if _, err := c.conn.Write(b); err != nil {
		return 0, nil, fmt.Errorf("write %s: %w", path, err)
	}
	c.lastOut = int64(len(b))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("read %s reply: %w", path, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("read %s body: %w", path, err)
	}
	c.lastIn = c.cr.n - int64(c.br.Buffered()) - before
	return resp.StatusCode, out, nil
}

// coarseHorizon is how far ahead of a due time the generator stops
// relying on Go timers. With every P idle, the runtime's netpoller sleeps
// in whole milliseconds, so a time.Sleep of a few hundred microseconds
// overshoots by about 0.8 ms on Linux — more than the send-to-reply time
// being measured. The last stretch before a due time is slept on a
// timerfd instead (see pacer).
const coarseHorizon = 2 * time.Millisecond

// pacer sleeps with microsecond precision without holding a P. A nanosleep
// syscall would keep its P in the syscall state until sysmon retakes it,
// which stalls the server's goroutines for up to sysmon's 10 ms backoff
// on a two-P process. A read of a timerfd parks the goroutine in the
// netpoller instead, and the kernel's high-resolution timer wakes it.
type pacer struct {
	fd  int
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// runtime's poller, so Read parks the goroutine.
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) close() { p.f.Close() }

// sleepUntil blocks until t.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}
