// Udpshaper is the real-datapath example: a userspace UDP forwarder whose
// egress is paced by the H-FSC scheduler, the role the paper's NetBSD
// kernel module plays for a network interface.
//
// Packets arriving on the listen sockets are classified by listen port
// and submitted to a multi-shard PacedQueue — per-core scheduler shards,
// each pacing its service-curve slice of the line rate. Each listen socket has its
// own reader goroutine; readers batch bursts into one SubmitN call and
// recycle packets through the shared pool (GetPacket in the readers,
// Release after the egress write), so a sustained flood neither locks
// readers against each other nor allocates per packet. Try it with three
// terminals:
//
//	go run ./examples/udpshaper -rate 1Mbit \
//	    -class voice:9001:rt(160,5ms,64Kbit):64Kbit \
//	    -class bulk:9002::900Kbit \
//	    -to 127.0.0.1:9999
//	nc -u -l 9999                     # sink
//	yes | nc -u 127.0.0.1 9002        # bulk load; then speak on 9001
//
// The voice port stays responsive regardless of bulk load. When the bulk
// sender overdrives a shard, SubmitN reports DropIntakeFull and the
// reader counts the drop instead of blocking the socket read loop.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/hierarchy"
)

type classFlag struct{ specs []string }

func (c *classFlag) String() string     { return strings.Join(c.specs, " ") }
func (c *classFlag) Set(s string) error { c.specs = append(c.specs, s); return nil }

// batchSize bounds one SubmitN call; a reader flushes earlier whenever
// the socket goes momentarily quiet, so batching never adds idle latency.
// On Linux it is also the recvmmsg burst: one syscall per batch.
const batchSize = 16

// egressBurst bounds one sendmmsg call on the egress side.
const egressBurst = 32

// egress serializes departing packets from every shard's pacing
// goroutine onto the output socket, batching them into sendmmsg bursts
// on Linux (one Write per packet elsewhere). A full channel back-
// pressures the pacing goroutines exactly like a slow blocking Write
// did before; the opportunistic drain below means a lone packet is
// flushed immediately, so batching adds no idle latency.
type egress struct {
	ch   chan *hfsc.Packet
	send func([]*hfsc.Packet) error
	done chan struct{}
}

func newEgress(out *net.UDPConn) *egress {
	e := &egress{ch: make(chan *hfsc.Packet, 4*egressBurst), done: make(chan struct{})}
	if w, ok := newMmsgWriter(out, egressBurst); ok {
		e.send = w.write
	} else {
		e.send = func(ps []*hfsc.Packet) error {
			for _, p := range ps {
				if _, err := out.Write(p.Payload[:p.Len]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	go e.run()
	return e
}

// transmit is the PacedQueue callback: hand the packet to the egress
// goroutine.
func (e *egress) transmit(p *hfsc.Packet) { e.ch <- p }

// stop flushes and terminates the egress goroutine. Call only after the
// shaper has stopped (no more transmit calls).
func (e *egress) stop() {
	close(e.ch)
	<-e.done
}

func (e *egress) run() {
	defer close(e.done)
	batch := make([]*hfsc.Packet, 0, egressBurst)
	for p := range e.ch {
		batch = append(batch[:0], p)
	fill:
		for len(batch) < egressBurst {
			select {
			case p, ok := <-e.ch:
				if !ok {
					break fill
				}
				batch = append(batch, p)
			default:
				break fill
			}
		}
		if err := e.send(batch); err != nil {
			log.Printf("forward: %v", err)
		}
		for _, p := range batch {
			p.Release()
		}
	}
}

func main() {
	var classes classFlag
	rateStr := flag.String("rate", "1Mbit", "egress line rate")
	to := flag.String("to", "127.0.0.1:9999", "destination address")
	shards := flag.Int("shards", 0, "scheduler shards (0 = one per CPU)")
	statsEvery := flag.Duration("stats", 5*time.Second, "interval between stats lines (0 disables)")
	flag.Var(&classes, "class", "name:port:rtCurve:lsCurve (curves in hierarchy syntax; rt may be empty)")
	flag.Parse()
	if len(classes.specs) == 0 {
		classes.specs = []string{"voice:9001:rt(160,5ms,64Kbit):64Kbit", "bulk:9002::900Kbit"}
	}

	rate, err := hierarchy.ParseRate(*rateStr)
	if err != nil {
		log.Fatal(err)
	}
	dst, err := net.ResolveUDPAddr("udp", *to)
	if err != nil {
		log.Fatal(err)
	}
	out, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()

	// The shard pacing goroutines own their schedulers; their transmit
	// callbacks all feed the egress batcher, which owns the output socket
	// and coalesces departures into sendmmsg bursts. Readers only ever
	// touch the intake rings.
	eg := newEgress(out)
	defer eg.stop()
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: rate, DefaultQueueLimit: 200},
		Shards: *shards,
	}, eg.transmit)
	if err != nil {
		log.Fatal(err)
	}

	var rejected atomic.Uint64 // intake drops seen by readers; scheduler-side refusals are in Snapshot
	for _, spec := range classes.specs {
		parts := strings.SplitN(spec, ":", 4)
		if len(parts) != 4 {
			log.Fatalf("bad -class %q (want name:port:rt:ls)", spec)
		}
		name, port := parts[0], parts[1]
		var cfg hfsc.ClassConfig
		if parts[2] != "" {
			if cfg.RealTime, err = hierarchy.ParseCurve(parts[2]); err != nil {
				log.Fatal(err)
			}
		}
		if cfg.LinkShare, err = hierarchy.ParseCurve(parts[3]); err != nil {
			log.Fatal(err)
		}
		id, err := m.AddClass("", name, cfg)
		if err != nil {
			log.Fatal(err)
		}
		conn, err := net.ListenPacket("udp", ":"+port)
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		fmt.Printf("class %-8s on :%s  id %d  rt=%v ls=%v\n", name, port, id, cfg.RealTime, cfg.LinkShare)

		go read(conn, m, id, &rejected)
	}
	if err := m.Admissible(); err != nil {
		fmt.Fprintln(os.Stderr, "warning:", err)
	}

	fmt.Printf("shaping to %s at %s across %d shard(s)\n", *to, *rateStr, m.NumShards())
	m.Start()
	defer m.Stop()

	if *statsEvery <= 0 {
		select {}
	}
	for range time.Tick(*statsEvery) {
		st := m.Stats()
		shards := st.Shards
		if shards == nil { // one shard: the totals are shard 0's
			shards = []hfsc.PacedStats{st}
		}
		rates := make([]string, len(shards))
		for i, sh := range shards {
			rates[i] = fmt.Sprintf("%d/%d", sh.Rate, sh.GuaranteedRate)
		}
		log.Printf("sent %d pkts (%d B), intake drops full=%d stopped=%d, backlog %d, reader-seen drops %d, shard rate/floor %s B/s",
			st.SentPackets, st.SentBytes, st.DropsIntakeFull, st.DropsStopped, st.IntakeBacklog, rejected.Load(),
			strings.Join(rates, "/"))
	}
}

// read pulls datagrams off one socket and batch-submits them. On Linux
// the whole burst arrives through one recvmmsg call; elsewhere the first
// read of a batch blocks and the rest use an immediate deadline, so
// either way a burst coalesces into one SubmitN while a lone packet is
// flushed at once.
func read(conn net.PacketConn, m *hfsc.PacedQueue, class int, rejected *atomic.Uint64) {
	if r, ok := newMmsgReader(conn, batchSize, 64<<10); ok {
		readMmsg(r, m, class, rejected)
		return
	}
	buf := make([]byte, 64<<10)
	batch := make([]*hfsc.Packet, 0, batchSize)
	var zero time.Time
	for {
		batch = batch[:0]
		conn.SetReadDeadline(zero) // block for the head of the next batch
		for len(batch) < batchSize {
			n, _, err := conn.ReadFrom(buf)
			if err != nil {
				if len(batch) > 0 && errTimeout(err) {
					break // burst over: flush what we have
				}
				if errTimeout(err) {
					continue
				}
				submit(m, batch, rejected)
				return
			}
			p := hfsc.GetPacket()
			p.Len = n
			p.Class = class
			p.Payload = append(p.Payload[:0], buf[:n]...) // reuse pooled capacity
			batch = append(batch, p)
			// Drain whatever already sits in the socket buffer, no waiting.
			conn.SetReadDeadline(time.Unix(1, 0))
		}
		if !submit(m, batch, rejected) {
			return
		}
	}
}

// readMmsg is the Linux read loop: one recvmmsg per burst, one SubmitN
// per burst. Exits when the socket is closed or the shaper stops.
func readMmsg(r *mmsgReader, m *hfsc.PacedQueue, class int, rejected *atomic.Uint64) {
	batch := make([]*hfsc.Packet, 0, batchSize)
	for {
		n, err := r.read()
		if err != nil {
			return
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			b := r.datagram(i)
			p := hfsc.GetPacket()
			p.Len = len(b)
			p.Class = class
			p.Payload = append(p.Payload[:0], b...) // reuse pooled capacity
			batch = append(batch, p)
		}
		if !submit(m, batch, rejected) {
			return
		}
	}
}

// submit feeds one batch through SubmitN, releasing refused packets and
// counting drops. Returns false once the shaper is stopped.
func submit(m *hfsc.PacedQueue, batch []*hfsc.Packet, rejected *atomic.Uint64) bool {
	rest := batch
	for len(rest) > 0 {
		n, r := m.SubmitN(rest)
		rest = rest[n:]
		switch r {
		case hfsc.DropNone:
		case hfsc.DropStopped:
			for _, p := range rest {
				p.Release()
			}
			return false
		default: // DropIntakeFull etc.: bounded intake — drop, never block the socket
			rejected.Add(1)
			rest[0].Release()
			rest = rest[1:]
		}
	}
	return true
}

func errTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
