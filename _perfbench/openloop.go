package main

import (
	"bytes"
	"fmt"
	"time"
)

// openLoop sends n requests on one connection on a fixed schedule —
// request i is due at start+i/rate whatever the replies do — and reads
// their one-line replies on a second goroutine. Requests found overdue are
// written together in one pipelined write.
type openLoop struct {
	c    *client
	n    int
	rate float64
	line func(i int, buf []byte) []byte
	tr   *tracer // nil: untraced
	lane int
	kind reqKind

	due, sent, ack []int64 // ns since epoch; ack 0 = no reply
	ok             []bool  // reply was OK
	roots          []pending
}

// replyWait bounds how long the replies may trail the last request.
const replyWait = 10 * time.Second

func (o *openLoop) run(start int64) error {
	o.due = make([]int64, o.n)
	o.sent = make([]int64, o.n)
	o.ack = make([]int64, o.n)
	o.ok = make([]bool, o.n)
	if o.tr != nil {
		o.roots = make([]pending, o.n)
	}
	for i := range o.due {
		o.due[i] = start + int64(float64(i)*1e9/o.rate)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < o.n; i++ {
			b, err := o.c.line()
			if err != nil {
				done <- err
				return
			}
			o.ack[i] = now()
			o.ok[i] = bytes.HasPrefix(b, []byte("OK"))
		}
		done <- nil
	}()
	werr := o.send()
	var rerr error
	select {
	case rerr = <-done:
	case <-time.After(replyWait):
		_ = o.c.c.SetReadDeadline(time.Now()) // unblock the reader; missing replies count as failed
		rerr = <-done
	}
	if werr != nil {
		return werr
	}
	if rerr != nil && !isTimeout(rerr) {
		return fmt.Errorf("reading replies: %w", rerr)
	}
	if o.tr != nil {
		for i, p := range o.roots {
			if o.ack[i] != 0 {
				o.tr.record(span{id: p.root, parent: noSpan, req: p.req, name: spanClient, start: o.sent[i], end: o.ack[i]})
			}
		}
	}
	return nil
}

func (o *openLoop) send() error {
	sleep, release := preciseSleeper()
	defer release()
	var buf []byte
	for i := 0; i < o.n; {
		t := now()
		if t < o.due[i] {
			sleep(time.Duration(o.due[i] - t))
			continue
		}
		buf = buf[:0]
		j := i
		for ; j < o.n && o.due[j] <= t; j++ {
			if o.tr != nil {
				p := o.tr.open(o.kind)
				o.roots[j] = p
				o.tr.lanes[o.lane].push(p)
			}
			buf = o.line(j, buf)
		}
		ts := now()
		for k := i; k < j; k++ {
			o.sent[k] = ts
		}
		if _, err := o.c.c.Write(buf); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// stats summarizes the loop: reply latency from each request's due time
// (µs), how late each request was sent (µs), the replies received, the OK
// replies, and the time of the last reply.
func (o *openLoop) stats() (fromDue, late, rtt dist, replied, oks int, last int64) {
	for i := range o.due {
		late.add(float64(o.sent[i]-o.due[i]) / 1e3)
		if o.ack[i] == 0 {
			continue
		}
		replied++
		last = max(last, o.ack[i])
		rtt.add(float64(o.ack[i]-o.sent[i]) / 1e3)
		if o.ok[i] {
			oks++
			fromDue.add(float64(o.ack[i]-o.due[i]) / 1e3)
		}
	}
	return fromDue, late, rtt, replied, oks, last
}
