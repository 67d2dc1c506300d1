package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// subscribeLine opens a raw connection, sends one SUBSCRIBE line, and
// returns the connection, its reader, and the server's one-line response.
func subscribeLine(t *testing.T, addr, line string) (net.Conn, *bufio.Reader, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	fmt.Fprintln(conn, line)
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("no response to %q: %v", line, err)
	}
	return conn, r, strings.TrimSpace(resp)
}

func TestServerSubscribeBox(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()

	subConn, subR, resp := subscribeLine(t, addr, "SUBSCRIBE BOX 0 0 100 100")
	if !strings.HasPrefix(resp, "OK subscribed") {
		t.Fatalf("subscribe response %q", resp)
	}

	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// Inside, outside, inside again: only the in-box positions arrive, and
	// in order, regardless of object.
	if err := pub.Append("inside", trajectory.S(1, 50, 50)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Append("roamer", trajectory.S(1, 5000, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Append("roamer", trajectory.S(2, 99, 99)); err != nil {
		t.Fatal(err)
	}

	subConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for _, want := range []string{"POS inside 1 50 50", "POS roamer 2 99 99"} {
		line, err := subR.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(line); got != want {
			t.Fatalf("geofence delivered %q, want %q", got, want)
		}
	}
}

func TestServerSubscribePolicyGrammar(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()

	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{"SUBSCRIBE car-1 drop-oldest", true},
		{"SUBSCRIBE * operb:10 disconnect", true},
		{"SUBSCRIBE * disconnect operb:10", true}, // either order
		{"SUBSCRIBE BOX 0 0 10 10 drop-newest", true},
		{"SUBSCRIBE BOX 0 0 10 10 ciseds:5 drop-oldest", true},
		{"SUBSCRIBE car-1 drop-oldest drop-newest", false}, // two policies
		{"SUBSCRIBE car-1 bogus-spec", false},
		{"SUBSCRIBE BOX 0 0 10", false},    // truncated bbox
		{"SUBSCRIBE BOX 10 10 0 0", false}, // empty box
	} {
		_, _, resp := subscribeLine(t, addr, tc.line)
		if got := strings.HasPrefix(resp, "OK subscribed"); got != tc.ok {
			t.Errorf("%q → %q, want ok=%v", tc.line, resp, tc.ok)
		}
	}
}

// A non-finite spec argument reaches the compressor grammar from any client;
// it must be refused, not build a compressor that never cuts.
func TestServerSubscribeRejectsNonFiniteSpec(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()
	for _, line := range []string{"SUBSCRIBE * opwtr:NaN", "SUBSCRIBE * opwtr:Inf", "SUBSCRIBE car-1 opwsp:30:NaN"} {
		if _, _, resp := subscribeLine(t, addr, line); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q → %q, want ERR", line, resp)
		}
	}
}

// TestServerEvictReleasesFeedCompressors is the server-level wiring test
// for the compressor-leak fix: after EVICT removes objects, wildcard feeds
// with a compression spec must shed the evicted objects' compressors.
func TestServerEvictReleasesFeedCompressors(t *testing.T) {
	st := store.New(store.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-done
	}()

	// Register the compressed wildcard feed directly on the server's bus so
	// the test can observe its per-object compressor count.
	factory, err := stream.ParseFactory("opwtr:5")
	if err != nil {
		t.Fatal(err)
	}
	sub := srv.bus.Subscribe(bus.SubOptions{ID: "*", NewComp: factory, Capacity: 4096})
	defer srv.bus.Unsubscribe(sub)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A churning fleet: 20 objects, then all but the newest evicted.
	for i := 0; i < 20; i++ {
		if err := c.Append(fmt.Sprintf("cab-%02d", i), trajectory.S(float64(i), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sub.CompCount(); got != 20 {
		t.Fatalf("CompCount = %d, want 20", got)
	}
	if _, err := c.EvictBefore(19); err != nil {
		t.Fatal(err)
	}
	if got := sub.CompCount(); got != 1 {
		t.Fatalf("CompCount after EVICT = %d, want 1 (evicted objects leaked)", got)
	}
}

// TestServerShutdownDuringFanout races graceful Shutdown against active
// publishers and subscribers; run with -race. Appends may fail once the
// drain begins — only data races and deadlocks fail the test.
func TestServerShutdownDuringFanout(t *testing.T) {
	st := store.New(store.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.SubBuf = 4
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	addr := l.Addr().String()
	var subWG sync.WaitGroup
	for i := 0; i < 8; i++ {
		line := "SUBSCRIBE *"
		if i%2 == 0 {
			line = "SUBSCRIBE BOX 0 0 1000 1000 drop-oldest"
		}
		conn, r, resp := subscribeLine(t, addr, line)
		if !strings.HasPrefix(resp, "OK subscribed") {
			t.Fatalf("subscribe: %q", resp)
		}
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for {
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
			}
		}()
	}

	var pubWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		pubWG.Add(1)
		go func(g int) {
			defer pubWG.Done()
			c, err := Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			id := fmt.Sprintf("obj-%d", g)
			for i := 0; i < 200; i++ {
				if err := c.Append(id, trajectory.S(float64(i), float64(i%50), float64(g))); err != nil {
					return // shutdown has begun
				}
			}
		}(g)
	}

	time.Sleep(10 * time.Millisecond) // let fan-out start
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	pubWG.Wait()
	subWG.Wait()
	if err := <-done; err != ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestServerUnsubscribeDuringPublish races subscriber hangups against a
// publishing client; run with -race.
func TestServerUnsubscribeDuringPublish(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()

	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		c, err := Dial(addr)
		if err != nil {
			return
		}
		defer c.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Append("hot", trajectory.S(float64(i), 1, 2)); err != nil {
				return
			}
		}
	}()

	var subWG sync.WaitGroup
	for g := 0; g < 6; g++ {
		subWG.Add(1)
		go func(g int) {
			defer subWG.Done()
			for i := 0; i < 20; i++ {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				fmt.Fprintln(conn, "SUBSCRIBE hot drop-oldest")
				r := bufio.NewReader(conn)
				conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				r.ReadString('\n') // the OK; maybe a POS or two
				r.ReadString('\n')
				conn.Close() // hang up mid-feed
			}
		}(g)
	}
	subWG.Wait()
	close(stop)
	pubWG.Wait()
}
