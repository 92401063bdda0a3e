// The load generator: a closed loop of numClients clients, each with one
// keep-alive connection, each sending its next request only when the
// previous reply has been read to its last byte. Callers of a lookup
// service wait for their answer, so a closed loop is the honest model;
// two clients because the machine this baseline was taken on has two
// CPUs and the server needs some of them.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

const (
	sampleEvery = 64 // 1 reply in 64 is kept and compared with the oracle
	maxErrNotes = 8  // failures described in the output; all are counted
)

// reply is a read's decoded answer, kept for the oracle.
type reply struct {
	op      *op
	matches []match
}

// tally is what one client saw in one phase.
type tally struct {
	latMS     [opDelete + 1][]float64 // successful requests only, by kind
	attempted int
	failed    int
	errNotes  []string
	sampled   []reply
	acked     []*op // acknowledged writes, in order
}

func (t *tally) fail(o *op, err error) {
	t.failed++
	if len(t.errNotes) < maxErrNotes {
		t.errNotes = append(t.errNotes, fmt.Sprintf("%s %s: %v", o.method, o.path, err))
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.latMS {
		t.latMS[k] = append(t.latMS[k], o.latMS[k]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.errNotes {
		if len(t.errNotes) < maxErrNotes {
			t.errNotes = append(t.errNotes, n)
		}
	}
	t.sampled = append(t.sampled, o.sampled...)
	t.acked = append(t.acked, o.acked...)
}

// latencies gathers the samples of every kind keep accepts.
func (t *tally) latencies(keep func(opKind) bool) []float64 {
	var out []float64
	for k := range t.latMS {
		if keep(opKind(k)) {
			out = append(out, t.latMS[k]...)
		}
	}
	return out
}

// client is one closed-loop caller with its own connection.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and judges the reply. The clock runs from just
// before the request is written until the last body byte has been read;
// decoding and checking happen after it stops. keepAll retains every
// read's reply for the oracle instead of one in sampleEvery.
func (c *client) do(o *op, t *tally, keepAll bool) {
	t.attempted++
	req, err := http.NewRequest(o.method, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		t.fail(o, err)
		return
	}
	c.buf.Reset()
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		t.fail(o, err)
		return
	}
	_, err = c.buf.ReadFrom(resp.Body)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	resp.Body.Close()
	if err != nil {
		t.fail(o, err)
		return
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		t.fail(o, fmt.Errorf("status %d: %.120s", resp.StatusCode, c.buf.Bytes()))
		return
	}
	if o.kind.isWrite() {
		if !json.Valid(c.buf.Bytes()) {
			t.fail(o, fmt.Errorf("unparsable body: %.120s", c.buf.Bytes()))
			return
		}
		t.acked = append(t.acked, o)
	} else {
		ms2, err := decodeReply(o.kind, c.buf.Bytes())
		if err == nil {
			err = checkInvariants(o, ms2)
		}
		if err != nil {
			t.fail(o, err)
			return
		}
		if keepAll || t.attempted%sampleEvery == 0 {
			t.sampled = append(t.sampled, reply{o, ms2})
		}
	}
	t.latMS[o.kind] = append(t.latMS[o.kind], ms)
}

// phase is one closed-loop run of every client over its own sequence.
type phase struct {
	seqs    [numClients][]op
	cyclic  bool          // wrap around at the end of a sequence
	window  time.Duration // stop after this long; 0 = run each sequence once
	keepAll bool          // keep every read's reply, not one in sampleEvery
}

// run drives the phase and returns the merged tally and the wall-clock
// time from the common start to the last client's last reply.
func (p phase) run(base string) (*tally, time.Duration) {
	var tallies [numClients]tally
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			seq, t := p.seqs[c], &tallies[c]
			if len(seq) == 0 {
				return
			}
			for i := 0; ; i++ {
				if i == len(seq) {
					if !p.cyclic || p.window == 0 {
						return
					}
					i = 0
				}
				if p.window > 0 && time.Since(start) >= p.window {
					return
				}
				cl.do(&seq[i], t, p.keepAll)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &tally{}
	for c := range tallies {
		total.merge(&tallies[c])
	}
	return total, elapsed
}
