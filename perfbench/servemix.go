package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fft"
	"repro/internal/serve"
)

// serve-mix drives an fftxd process, started with default flags on an
// ephemeral loopback port, with an open loop: arrivals follow a fixed-rate
// schedule per ladder rung, each picks a seeded shape class and format,
// and at most nproc requests are in flight. Latency is timed from the
// arrival's due time, so a request that waits for a free connection, or
// behind a generator that fell behind, pays that wait.

type shapeClass struct {
	name  string
	dims  []int
	batch int
}

// serveClasses is the shape mix; each arrival picks one uniformly.
var serveClasses = []shapeClass{
	{"16x16x16", []int{16, 16, 16}, 1},
	{"64x64", []int{64, 64}, 1},
	{"486", []int{486}, 1},
	{"64x64x8", []int{64, 64}, 8},
}

const (
	// One arrival in jsonEvery is sent as JSON; the rest use the binary
	// wire format.
	jsonEvery = 5
	// inputsPerClass seeded inputs per shape class, each with its reference
	// output, are built at set-up; arrivals cycle through them.
	inputsPerClass = 2
	// nominalRPS is the ladder's nominal arrival rate, about a fifth of
	// what the mix sustains on a 2-core host, so that a slower host moves
	// latency by the slower service more than by the queueing it adds.
	nominalRPS = 30.0
	// saturationRPS offers far more than the host serves, so all nproc
	// connections stay busy and the reply rate is the capacity.
	saturationRPS = 2000.0
	// p99LimitMS is the latency limit a rung's p99 must meet for the rate
	// to count as sustained.
	p99LimitMS = 150.0
	// serveSetups is how many daemon starts set-up time is the median of.
	serveSetups = 15
	// outputTol bounds |reply - reference| relative to 1 + max|reference|.
	outputTol = 1e-9
)

// rungRatios are the rates above nominal, as multiples of it, climbed until
// one misses the latency limit.
var rungRatios = []float64{2, 3, 4, 5, 6}

// serveInput is one seeded request with its reference output.
type serveInput struct {
	class int
	data  []complex128
	want  []complex128
	bin   []byte
	json  []byte
}

// buildInputs makes the seeded inputs and their references: the naive DFT
// applied along each axis of every batch row.
func buildInputs(seed int64) ([]serveInput, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []serveInput
	for ci, c := range serveClasses {
		for k := 0; k < inputsPerClass; k++ {
			n := 1
			for _, d := range c.dims {
				n *= d
			}
			data := randomComplex(rng, n*c.batch)
			want := make([]complex128, len(data))
			for b := 0; b < c.batch; b++ {
				copy(want[b*n:], naiveND(data[b*n:(b+1)*n], c.dims))
			}
			req := &serve.Request{Op: serve.OpTransform, Dims: c.dims, Sign: int(fft.Forward),
				Batch: c.batch, Data: interleave(data)}
			bin, err := serve.EncodeRequest(req)
			if err != nil {
				return nil, fmt.Errorf("encode %s request: %w", c.name, err)
			}
			js, err := json.Marshal(req)
			if err != nil {
				return nil, fmt.Errorf("encode %s request: %w", c.name, err)
			}
			out = append(out, serveInput{ci, data, want, bin, js})
		}
	}
	return out, nil
}

// naiveND applies fft.DFT along every axis of a row-major array.
func naiveND(x []complex128, dims []int) []complex128 {
	out := append([]complex128(nil), x...)
	stride := 1
	for a := len(dims) - 1; a >= 0; a-- {
		n := dims[a]
		line := make([]complex128, n)
		for base := 0; base < len(out); base++ {
			if (base/stride)%n != 0 {
				continue
			}
			for i := 0; i < n; i++ {
				line[i] = out[base+i*stride]
			}
			res := fft.DFT(line, fft.Forward)
			for i := 0; i < n; i++ {
				out[base+i*stride] = res[i]
			}
		}
		stride *= n
	}
	return out
}

func interleave(x []complex128) []float64 {
	out := make([]float64, 2*len(x))
	for i, v := range x {
		out[2*i], out[2*i+1] = real(v), imag(v)
	}
	return out
}

// checkReply compares a reply payload with the reference.
func checkReply(got []float64, want []complex128) error {
	if len(got) != 2*len(want) {
		return fmt.Errorf("reply has %d values, want %d", len(got), 2*len(want))
	}
	scale := 0.0
	for _, w := range want {
		scale = math.Max(scale, cmplx.Abs(w))
	}
	for i, w := range want {
		if d := cmplx.Abs(complex(got[2*i], got[2*i+1]) - w); !(d <= outputTol*(1+scale)) {
			return fmt.Errorf("element %d off by %g", i, d)
		}
	}
	return nil
}

// daemon is a running fftxd process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// urlCatcher receives fftxd's standard output and hands over the serving
// URL from its first line; later output is discarded.
type urlCatcher struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func (u *urlCatcher) Write(p []byte) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.sent {
		return len(p), nil
	}
	u.buf = append(u.buf, p...)
	if i := bytes.IndexByte(u.buf, '\n'); i >= 0 {
		line := string(u.buf[:i])
		url := ""
		if _, rest, ok := strings.Cut(line, " at "); ok {
			url, _, _ = strings.Cut(rest, " ")
		}
		u.ch <- url
		u.sent = true
	}
	return len(p), nil
}

// startDaemon starts fftxd on an ephemeral port and waits until /healthz
// answers 200.
func startDaemon(bin string, client *http.Client) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no fftxd binary given (-fftxd)")
	}
	catcher := &urlCatcher{ch: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = catcher
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fftxd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	select {
	case d.url = <-catcher.ch:
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("fftxd exited at start: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("fftxd printed no URL within 30s")
	}
	if !strings.HasPrefix(d.url, "http://") {
		d.stop()
		return nil, fmt.Errorf("unexpected fftxd URL %q", d.url)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("fftxd not healthy within 30s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM (fftxd drains and exits) and waits for the process,
// killing it if the drain takes too long.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.done
		d.done <- err
		return fmt.Errorf("fftxd did not drain within 20s: %v", err)
	}
}

// sample is one request of the open loop. Times are offsets from the rung
// start.
type sample struct {
	input   int
	json    bool
	due     time.Duration
	woke    time.Duration // the generator reached the arrival
	handoff time.Duration // a connection took it
	sent    time.Duration
	replied time.Duration
	ok      bool
}

func (s sample) latency() float64 { return ms(s.replied - s.due) }

// rung is the outcome of one ladder rate.
type rung struct {
	rate    float64
	samples []sample
	aborted bool // arrivals were still pending when the rung ended
	lagGrew bool
}

func (r *rung) latencies(pick func(sample) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.ok && (pick == nil || pick(s)) {
			out = append(out, s.latency())
		}
	}
	return out
}

// p99 counts a failed request as missing the limit.
func (r *rung) p99() float64 {
	lat := r.latencies(nil)
	for i := len(lat); i < len(r.samples); i++ {
		lat = append(lat, math.Inf(1))
	}
	return quantile(lat, 0.99)
}

func (r *rung) sustained() bool {
	return !r.aborted && !r.lagGrew && r.p99() <= p99LimitMS
}

// loadClient sends requests for the open loop.
type loadClient struct {
	url    string
	http   *http.Client
	inputs []serveInput
	seed   int64
	tr     *tracer
	o      *outcome
	mu     sync.Mutex // guards o
	nextOp int64
}

// deck deals arrivals in seeded blocks. Each block holds every shape class
// jsonEvery times, once of them as JSON, in shuffled order, so every
// stretch of the schedule has the same mix and the seed only moves the
// order and which stored input of a class is sent.
type deck struct {
	rng   *rand.Rand
	block []arrival
}

type arrival struct {
	class int
	json  bool
}

func (d *deck) next() (input int, asJSON bool) {
	if len(d.block) == 0 {
		for c := range serveClasses {
			for k := 0; k < jsonEvery; k++ {
				d.block = append(d.block, arrival{c, k == 0})
			}
		}
		d.rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
	}
	a := d.block[0]
	d.block = d.block[1:]
	return a.class*inputsPerClass + d.rng.Intn(inputsPerClass), a.json
}

// do sends one request and checks the reply.
func (c *loadClient) do(inp *serveInput, asJSON bool) (sent, replied time.Time, err error) {
	body, ctype := inp.bin, "application/octet-stream"
	if asJSON {
		body, ctype = inp.json, "application/json"
	}
	sent = time.Now()
	resp, err := c.http.Post(c.url+"/fft", ctype, bytes.NewReader(body))
	if err != nil {
		return sent, time.Now(), err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	replied = time.Now()
	if err != nil {
		return sent, replied, err
	}
	if resp.StatusCode != http.StatusOK {
		return sent, replied, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, reply)
	}
	var data []float64
	if asJSON {
		var r serve.Response
		if err := json.Unmarshal(reply, &r); err != nil {
			return sent, replied, fmt.Errorf("decode JSON reply: %w", err)
		}
		data = r.Data
	} else {
		r, err := serve.DecodeResponse(reply)
		if err != nil {
			return sent, replied, fmt.Errorf("decode binary reply: %w", err)
		}
		data = r.Data
	}
	return sent, replied, checkReply(data, inp.want)
}

// runRung offers rate req/s for dur with nproc connections.
func (c *loadClient) runRung(rate float64, dur time.Duration) *rung {
	r := &rung{rate: rate}
	n := int(rate * dur.Seconds())
	r.samples = make([]sample, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	conns := runtime.NumCPU()
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := &r.samples[i]
				s.handoff = time.Since(start)
				inp := &c.inputs[s.input]
				sent, replied, err := c.do(inp, s.json)
				s.sent, s.replied = sent.Sub(start), replied.Sub(start)
				s.ok = err == nil
				c.mu.Lock()
				c.o.attempted++
				if err != nil {
					c.o.fail("serve-mix %s json=%v: %v", serveClasses[inp.class].name, s.json, err)
				}
				op := c.nextOp
				c.nextOp++
				c.mu.Unlock()
				if c.tr != nil {
					due := start.Add(s.due)
					root := c.tr.reserve("request", op, -1, due)
					c.tr.at("gen.late", op, root, due, start.Add(s.woke))
					c.tr.at("conn_wait", op, root, start.Add(s.woke), start.Add(s.handoff))
					c.tr.at("http", op, root, sent, replied)
					c.tr.at("check", op, root, replied, time.Now())
					c.tr.finish(root, time.Now())
				}
			}
		}()
	}
	// Arrivals still pending when the rung's time (plus the latency limit
	// as grace) is up are dropped: the backlog outgrew the rung.
	end := start.Add(dur + time.Duration(p99LimitMS*float64(time.Millisecond)))
	arrivals := &deck{rng: rand.New(rand.NewSource(c.seed ^ int64(rate*1000)))}
	sentN := 0
	for i := 0; i < n; i++ {
		s := &r.samples[i]
		s.input, s.json = arrivals.next()
		s.due = time.Duration(float64(i) / rate * float64(time.Second))
		if wait := s.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		s.woke = time.Since(start)
		if time.Now().After(end) {
			r.aborted = true
			break
		}
		jobs <- i
		sentN++
	}
	close(jobs)
	wg.Wait()
	r.samples = r.samples[:sentN]
	// The backlog grew if arrivals in the last quarter waited for the
	// generator or a connection markedly longer than those in the first.
	q := len(r.samples) / 4
	if q > 0 {
		lag := func(ss []sample) float64 {
			var xs []float64
			for _, s := range ss {
				xs = append(xs, ms(s.handoff-s.due))
			}
			return median(xs)
		}
		r.lagGrew = lag(r.samples[len(r.samples)-q:]) > lag(r.samples[:q])+p99LimitMS/10
	}
	return r
}

// scrape reads fftxd's /metrics and sums each series name over its labels.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

func runServeMix(opts options) (*outcome, error) {
	o := &outcome{}
	inputs, err := buildInputs(opts.seed)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()
	c := &loadClient{http: client, inputs: inputs, seed: opts.seed, o: o}

	// Set-up: fftxd start to healthy plus the first reply per shape class,
	// serveSetups times; the last daemon serves the measured run.
	var setups []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		d, err = startDaemon(opts.fftxd, client)
		if err != nil {
			return nil, err
		}
		c.url = d.url
		for ci := range serveClasses {
			o.attempted++
			if _, _, err := c.do(&inputs[ci*inputsPerClass], false); err != nil {
				o.fail("serve-mix set-up %s: %v", serveClasses[ci].name, err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
		client.CloseIdleConnections()
	}
	defer d.stop()

	total := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		return o, serveTraced(c, d, opts, total)
	}

	low := c.runRung(nominalRPS/4, total*8/100)
	nominal := c.runRung(nominalRPS, total*47/100)
	// fftxd's peak resident memory through set-up and the nominal load.
	// Read before the saturating rung, whose overlapping JSON batches make
	// the later peak depend on when the Go collector happens to run.
	rss, err := peakRSSMiB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ladder := []*rung{nominal}
	for _, ratio := range rungRatios {
		r := c.runRung(nominalRPS*ratio, total*4/100)
		ladder = append(ladder, r)
		if !r.sustained() {
			break
		}
	}
	sat := c.runRung(saturationRPS, total*25/100)

	for _, r := range append([]*rung{low}, ladder...) {
		fmt.Printf("  rung %6.1f req/s: n=%5d p50=%8.3f ms p99=%9.3f ms backlog=%v sustained=%v\n",
			r.rate, len(r.samples), median(r.latencies(nil)), r.p99(), r.aborted || r.lagGrew, r.sustained())
	}
	for ci, cl := range serveClasses {
		for _, js := range []bool{false, true} {
			lat := nominal.latencies(func(s sample) bool { return s.input/inputsPerClass == ci && s.json == js })
			fmt.Printf("  nominal %-9s json=%-5v n=%4d p50=%8.3f ms max=%8.3f ms\n", cl.name, js, len(lat), median(lat), quantile(lat, 1))
		}
	}
	capacity := sat.throughput()
	nomLat := nominal.latencies(nil)
	o.e2e("setup_s", median(setups), "s")
	o.e2e("op_p50_ms", nominal.classP50(), "ms")
	o.e2e("op_median_all_ms", median(nomLat), "ms")
	name, q := tailQuantile(len(nomLat))
	o.e2e(name, quantile(nomLat, q), "ms")
	o.e2e("op_p50_low_rate_ms", median(low.latencies(nil)), "ms")
	o.e2e("op_p50_bin_ms", median(nominal.latencies(func(s sample) bool { return !s.json })), "ms")
	o.e2e("op_p50_json_ms", median(nominal.latencies(func(s sample) bool { return s.json })), "ms")
	o.e2e("max_rps", maxSustained(ladder), "1/s")
	o.e2e("capacity_rps", capacity, "1/s")
	o.e2e("ops_per_s", capacity, "1/s")
	o.e2e("error_ratio", float64(o.failed)/float64(o.attempted), "1")
	o.e2e("peak_rss_mb", rss, "MiB")
	o.e2e("nominal_samples", float64(len(nominal.samples)), "count")
	return o, nil
}

// classP50 is serve-mix's op_p50_ms: the geometric mean over the shape
// classes and formats of each one's median latency. The plain median of
// the mix sits in the tail of the cheap binary classes, where queueing
// behind the heavy JSON batches moves it most.
func (r *rung) classP50() float64 {
	var meds []float64
	for ci := range serveClasses {
		for _, js := range []bool{false, true} {
			lat := r.latencies(func(s sample) bool { return s.input/inputsPerClass == ci && s.json == js })
			if len(lat) > 0 {
				meds = append(meds, median(lat))
			}
		}
	}
	return geomean(meds)
}

// tailQuantile picks the highest of p99, p98, p95 and p90 that has at least
// ten samples beyond it.
func tailQuantile(n int) (string, float64) {
	for _, p := range []int{99, 98, 95} {
		if float64(n)*(1-float64(p)/100) >= 10 {
			return fmt.Sprintf("op_p%d_ms", p), float64(p) / 100
		}
	}
	return "op_p90_ms", 0.9
}

// throughput is the completion rate of a saturated rung: correct replies
// per second in each half-second window from the first reply on, averaged
// over the middle half of the windows, so a short stall of the host moves
// it little.
func (r *rung) throughput() float64 {
	const window = 500 * time.Millisecond
	var first, last time.Duration = -1, 0
	for _, s := range r.samples {
		if s.ok {
			if first < 0 || s.replied < first {
				first = s.replied
			}
			last = max(last, s.replied)
		}
	}
	n := int((last - first) / window)
	if n < 1 {
		return math.NaN()
	}
	counts := make([]float64, n)
	for _, s := range r.samples {
		if i := int((s.replied - first) / window); s.ok && i < n {
			counts[i]++
		}
	}
	sort.Float64s(counts)
	return mean(counts[n/4:n-n/4]) / window.Seconds()
}

// maxSustained is the highest sustained rate of an ascending ladder,
// interpolated on log p99 between the last sustained rung and the first
// that missed the limit, so that it reads continuously rather than in
// ladder steps.
func maxSustained(ladder []*rung) float64 {
	best := -1
	for i, r := range ladder {
		if !r.sustained() {
			break
		}
		best = i
	}
	if best < 0 {
		return ladder[0].rate * p99LimitMS / ladder[0].p99()
	}
	if best == len(ladder)-1 {
		return ladder[best].rate
	}
	a, b := ladder[best], ladder[best+1]
	pa, pb := a.p99(), b.p99()
	frac := 0.0
	if pb > pa && !math.IsInf(pb, 1) {
		frac = math.Log(p99LimitMS/pa) / math.Log(pb/pa)
		frac = math.Max(0, math.Min(1, frac))
	}
	return a.rate + frac*(b.rate-a.rate)
}

// serveTraced runs the nominal rate untraced, then traced, and reports the
// per-layer split: server-side time from fftxd's /metrics deltas, the
// client-side waits and HTTP residual from spans, and in-process replays
// of the kernels and codecs at the mix's shapes.
func serveTraced(c *loadClient, d *daemon, opts options, total time.Duration) error {
	o := c.o
	plain := c.runRung(nominalRPS, total/2)
	before, err := scrape(c.http, d.url)
	if err != nil {
		return err
	}
	c.tr = newTracer()
	traced := c.runRung(nominalRPS, total/2)
	after, err := scrape(c.http, d.url)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den string) float64 {
		if delta(den) == 0 {
			return 0
		}
		return delta(num) / delta(den)
	}
	o.layer("bench.trace_overhead_pct", 100*(traced.classP50()/plain.classP50()-1), "%")
	serverMS := 1e3 * ratio("fftxd_request_seconds_sum", "fftxd_request_seconds_count")
	o.layer("serve.server_ms", serverMS, "ms")
	o.layer("serve.batch_exec_us", 1e6*ratio("fftxd_batch_exec_seconds_sum", "fftxd_batch_exec_seconds_count"), "us")
	o.layer("serve.batch_rows_mean", ratio("fftxd_batch_rows_sum", "fftxd_batch_rows_count"), "count")
	o.layer("serve.rejects", delta("fftxd_rejects_total"), "count")
	o.layer("serve.plan_builds", after["fftxd_plan_builds"], "count")

	ops := float64(len(traced.samples))
	self := c.tr.selfMillis()
	var http []float64
	for _, s := range traced.samples {
		http = append(http, ms(s.replied-s.sent))
	}
	o.layer("http.residual_ms", mean(http)-serverMS, "ms")
	o.layer("client.conn_wait_ms", self["conn_wait"]/ops, "ms")
	o.layer("gen.late_ms", self["gen.late"]/ops, "ms")
	o.layer("self_ms.http", self["http"]/ops, "ms")
	o.layer("self_ms.check", self["check"]/ops, "ms")
	o.layer("self_ms.op", self["request"]/ops, "ms")

	replayServeLayers(o, c.inputs)
	return c.tr.write(dumpPath(opts, "serve-mix"))
}

// replayServeLayers times, in process, the kernels, plan-cache lookups, par
// fan-out and codecs the server runs for the mix's shapes.
func replayServeLayers(o *outcome, inputs []serveInput) {
	cache := &fft.Cache{}
	for ci, c := range serveClasses {
		x := append([]complex128(nil), inputs[ci*inputsPerClass].data...)
		n := len(x) / c.batch
		var fn func()
		switch len(c.dims) {
		case 3:
			p := cache.Get3D(c.dims[0], c.dims[1], c.dims[2])
			fn = func() { p.Transform(x, fft.Forward) }
		case 2:
			p := cache.Get2D(c.dims[0], c.dims[1])
			fn = func() { p.TransformBatch(x, c.batch, fft.Forward) }
		default:
			p := cache.Get(c.dims[0])
			fn = func() { p.Transform(x, fft.Forward) }
		}
		d := timeMedian(50, 100*time.Millisecond, fn)
		o.layer("fft.kernel_us."+c.name, float64(d)/1e3, "us")
		o.layer("fft.ns_per_nlog2n."+c.name, float64(d)/float64(c.batch)/nlog2n(n), "ns")
	}
	const lookups = 1000
	d := timeMedian(50, 50*time.Millisecond, func() {
		for i := 0; i < lookups; i++ {
			cache.Get3D(16, 16, 16)
		}
	})
	o.layer("fft.cache_lookup_ns", float64(d)/lookups, "ns")
	replayFanout(o, 8)

	for _, format := range []string{"bin", "json"} {
		var dec, enc, allocs []float64
		for i := range inputs {
			in := &inputs[i]
			resp := &serve.Response{Data: interleave(in.want), BatchSize: serveClasses[in.class].batch}
			var decode, encode func()
			if format == "bin" {
				decode = func() { _, _ = serve.DecodeRequest(in.bin, serve.DefaultMaxElements) }
				encode = func() { _ = serve.EncodeResponse(resp) }
			} else {
				decode = func() { _, _ = serve.DecodeJSONRequest(in.json, serve.DefaultMaxElements) }
				encode = func() { _, _ = json.Marshal(resp) }
			}
			dec = append(dec, float64(timeMedian(5, 20*time.Millisecond, decode))/1e3)
			enc = append(enc, float64(timeMedian(5, 20*time.Millisecond, encode))/1e3)
			allocs = append(allocs, mallocsPer(5, func() { decode(); encode() }))
		}
		o.layer("serve.decode_us."+format, mean(dec), "us")
		o.layer("serve.encode_us."+format, mean(enc), "us")
		o.layer("serve.codec_allocs."+format, mean(allocs), "count")
	}
}
