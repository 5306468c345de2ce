package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	dsd "repro"
	"repro/internal/datasets"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/wire"
)

// serveGraph is one graph dsdd preloads, with the golden densities of
// its core-exact h-clique queries (the cold pass), indexed by h.
type serveGraph struct {
	name, dataset string
	gold          map[int][2]int64
}

var serveGraphs = []serveGraph{
	{name: "yeast", dataset: "Yeast", gold: map[int][2]int64{2: {550, 111}, 3: {97, 10}, 4: {135, 10}}},
	{name: "hepth", dataset: "Ca-HepTh", gold: map[int][2]int64{2: {5137, 336}, 3: {3970, 32}, 4: {22892, 32}}},
	{name: "caida", dataset: "As-Caida", gold: map[int][2]int64{2: {8021, 420}, 3: {7905, 40}, 4: {58054, 40}}},
}

// bootRounds is how often a run generates the graphs and boots dsdd;
// setup_s and peak_rss_mb are medians over the rounds, and the last
// round's server takes the load.
const bootRounds = 5

// coldRounds is how often the booted server registers fresh copies of
// the graphs and answers the cold pass on them; solve_s sums each cold
// query's fastest round.
// The copies land in a process already warm (heap mapped, code paged
// in), so the figure is the cold solve and not the process start.
const coldRounds = 5

// lateBoundMs is the generator's lateness budget: a run whose p99
// dispatch lateness exceeds it is stamped invalid, because its latencies
// measure the client as much as the server.
const lateBoundMs = 25.0

// server is one dsdd child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been reaped
}

// startServer boots dsdd with its shipped defaults on a kernel-chosen
// loopback port, preloading files, and returns once it listens — which
// dsdd only does after every preload is registered.
func startServer(bin, work string, files []string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	for i, f := range files {
		args = append(args, "-graph", serveGraphs[i].name+"="+f)
	}
	cmd := exec.Command(bin, args...)
	// The kernel kills the server if this process dies without reaping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(work, "dsdd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dsdd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
		close(s.done)
	}()
	_, rest, ok := strings.Cut(line, "listening on ")
	if err != nil || !ok {
		s.stop()
		return nil, fmt.Errorf("dsdd did not come up (see %s): %q", logf.Name(), line)
	}
	s.base, _, _ = strings.Cut(rest, " ")
	return s, nil
}

// stop kills the server and waits until it has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// rec is the outcome of one scheduled request.
type rec struct {
	lat   time.Duration // completion minus due time
	first time.Duration // streams: first event minus due time
	err   error
	// Answer: the exact density, the witness, the echoed canonical key.
	num, den int64
	witness  []int32
	cached   bool
	stats    *wire.QueryStats
	// version is the echoed (queries) or produced (mutations) version.
	// A stream's events carry no version: a stream is checked by its
	// density against the replay at the pinned version instead.
	version  int64
	inserted int
	// bad is a stream whose intervals widened or whose final event is
	// missing: a wrong answer.
	bad error
}

// target is what a schedule is played against: dsdd over HTTP, or an
// in-process service.Engine.
type target interface {
	query(ctx context.Context, graph string, q wire.Query) rec
	mutate(ctx context.Context, graph string, m wire.MutateRequest) rec
	stream(ctx context.Context, graph string, q wire.Query, due time.Time) rec
}

type httpTarget struct{ c *client.Client }

func (t httpTarget) query(ctx context.Context, graph string, q wire.Query) rec {
	resp, err := t.c.QueryV2(ctx, wire.QueryV2Request{Graph: graph, Query: q})
	if err != nil {
		return rec{err: err}
	}
	r := rec{cached: resp.Cached, stats: resp.Stats, version: resp.Query.Version}
	if resp.Result != nil {
		r.num, r.den, r.witness = resp.Result.DensityNum, resp.Result.DensityDen, resp.Result.Vertices
	}
	return r
}

func (t httpTarget) mutate(ctx context.Context, graph string, m wire.MutateRequest) rec {
	resp, err := t.c.Mutate(ctx, graph, m)
	if err != nil {
		return rec{err: err}
	}
	return rec{version: resp.Version, inserted: resp.Inserted}
}

func (t httpTarget) stream(ctx context.Context, graph string, q wire.Query, due time.Time) rec {
	var ch streamCheck
	final, err := t.c.StreamQuery(ctx, wire.QueryV2Request{Graph: graph, Query: q}, func(ev wire.StreamEvent) {
		ch.observe(due, ev.DensityNum, ev.DensityDen, ev.Upper, ev.Final)
	})
	if err != nil {
		return rec{err: err}
	}
	return ch.rec(final.DensityNum, final.DensityDen, final.Witness)
}

// engineTarget plays the schedule against an in-process Engine built
// exactly as dsdd builds its own, with no HTTP in between.
type engineTarget struct{ e *service.Engine }

func (t engineTarget) query(ctx context.Context, graph string, wq wire.Query) rec {
	q, err := wq.ToQuery()
	if err != nil {
		return rec{err: err}
	}
	nq, err := t.e.ResolveFor(graph, q)
	if err != nil {
		return rec{err: err}
	}
	res, cached, err := t.e.Solve(ctx, graph, nq, 0)
	if err != nil {
		return rec{err: err}
	}
	return rec{num: res.Density.Num, den: res.Density.Den, witness: res.Vertices, cached: cached,
		stats: wire.FromQueryStats(res.Stats), version: int64(nq.Version)}
}

func (t engineTarget) mutate(ctx context.Context, graph string, m wire.MutateRequest) rec {
	d, err := t.e.Mutate(ctx, graph, dsd.Mutation{Insert: m.Insert, Delete: m.Delete})
	if err != nil {
		return rec{err: err}
	}
	return rec{version: int64(d.Version), inserted: d.Inserted}
}

func (t engineTarget) stream(ctx context.Context, graph string, wq wire.Query, due time.Time) rec {
	q, err := wq.ToQuery()
	if err != nil {
		return rec{err: err}
	}
	nq, err := t.e.ResolveFor(graph, q)
	if err != nil {
		return rec{err: err}
	}
	var ch streamCheck
	res, _, err := t.e.Stream(ctx, graph, nq, 0, func(a dsd.Answer, _ bool) {
		ch.observe(due, a.Density.Num, a.Density.Den, upperOf(a.Bound), a.Final)
	})
	if err != nil {
		return rec{err: err}
	}
	return ch.rec(res.Density.Num, res.Density.Den, res.Vertices)
}

// upperOf is an answer's certified upper end in the wire's form: nil
// while no upper certificate exists (+Inf).
func upperOf(bound float64) *float64 {
	if math.IsInf(bound, 1) {
		return nil
	}
	return &bound
}

// streamCheck watches one stream's events: the first one's arrival, and
// that intervals only tighten up to exactly one final event.
type streamCheck struct {
	first   time.Duration
	n       int
	lastNum int64
	lastDen int64
	lastUp  *float64
	final   bool
	bad     error
}

func (c *streamCheck) observe(due time.Time, num, den int64, up *float64, final bool) {
	if c.n == 0 {
		c.first = time.Since(due)
	} else if c.bad == nil {
		switch {
		case c.final:
			c.bad = fmt.Errorf("event after the final one")
		case num*c.lastDen < c.lastNum*den:
			c.bad = fmt.Errorf("lower end fell from %d/%d to %d/%d", c.lastNum, c.lastDen, num, den)
		case c.lastUp != nil && (up == nil || *up > *c.lastUp):
			c.bad = fmt.Errorf("upper end widened")
		}
	}
	c.n++
	c.lastNum, c.lastDen, c.lastUp, c.final = num, den, up, final
}

func (c *streamCheck) rec(num, den int64, witness []int32) rec {
	r := rec{first: c.first, num: num, den: den, witness: witness, bad: c.bad}
	switch {
	case r.bad != nil:
	case !c.final:
		r.bad = fmt.Errorf("no final event")
	case !sameDensity(num, den, c.lastNum, c.lastDen):
		r.bad = fmt.Errorf("final event %d/%d differs from the result %d/%d", c.lastNum, c.lastDen, num, den)
	}
	return r
}

// play runs the schedule open loop against t: each request is sent when
// it is due, at most conns at a time, and timed from its due time. A
// request pinned to a version waits until the mutation creating it has
// been acknowledged, and mutations of one graph go out in order. It
// returns one rec per event and the dispatcher's lateness per event.
func play(ctx context.Context, s *schedule, t target, conns int) ([]rec, []time.Duration) {
	// acked[g][v] is closed once version v of graph g exists.
	acked := make([][]chan struct{}, len(s.versions))
	for g, n := range s.versions {
		acked[g] = make([]chan struct{}, n+1)
		for v := range acked[g] {
			acked[g][v] = make(chan struct{})
		}
		close(acked[g][1])
	}
	sem := make(chan struct{}, conns)
	recs := make([]rec, len(s.events))
	late := make([]time.Duration, len(s.events))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range s.events {
		ev := &s.events[i]
		due := start.Add(ev.due)
		time.Sleep(time.Until(due))
		late[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wait := ev.version
			if ev.kind == kindMutate {
				wait--
			}
			select {
			case <-acked[ev.graph][wait]:
			case <-ctx.Done():
				recs[i] = rec{err: ctx.Err(), lat: time.Since(due)}
				return
			}
			sem <- struct{}{}
			name := serveGraphs[ev.graph].name
			var r rec
			switch ev.kind {
			case kindMutate:
				r = t.mutate(ctx, name, ev.mut)
				// Release the dependents even when the mutation failed or
				// produced another version: they then fail or answer at
				// the wrong version, and verify reports them.
				close(acked[ev.graph][ev.version])
			case kindStream:
				r = t.stream(ctx, name, ev.query, due)
			default:
				r = t.query(ctx, name, ev.query)
			}
			<-sem
			r.lat = time.Since(due)
			recs[i] = r
		}()
	}
	wg.Wait()
	return recs, late
}

// verify checks every answer of a played schedule against the library
// replica at the version the schedule pinned, and returns the failed
// request count. answers caches the replica's densities across calls.
// Each graph's replica is replayed on its own goroutine.
func verify(ctx context.Context, s *schedule, recs []rec, answers *replay) (failed int, err error) {
	fails := make([]int, len(s.versions))
	errs := make([]error, len(s.versions))
	var wg sync.WaitGroup
	for g := range s.versions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails[g], errs[g] = verifyGraph(ctx, s, recs, answers, g)
		}()
	}
	wg.Wait()
	for _, f := range fails {
		failed += f
	}
	return failed, errors.Join(errs...)
}

// verifyGraph is verify for the events on graph g, in schedule order.
func verifyGraph(ctx context.Context, s *schedule, recs []rec, answers *replay, g int) (failed int, err error) {
	for i, ev := range s.events {
		r := recs[i]
		if ev.graph != g {
			continue
		}
		if r.err != nil {
			failed++
			continue
		}
		what := fmt.Sprintf("%s %s on %s@v%d", ev.kind, queryKey(ev), serveGraphs[ev.graph].name, ev.version)
		if r.bad != nil {
			return failed, wrongf("%s: %v", what, r.bad)
		}
		if ev.kind != kindStream && r.version != ev.version {
			return failed, wrongf("%s: answered at version %d", what, r.version)
		}
		if ev.kind == kindMutate {
			if r.inserted != len(ev.mut.Insert) {
				return failed, wrongf("%s: inserted %d of %d edges", what, r.inserted, len(ev.mut.Insert))
			}
			continue
		}
		num, den, err := answers.density(ctx, s, ev)
		if err != nil {
			return failed, fmt.Errorf("%s: replay: %w", what, err)
		}
		if !sameDensity(r.num, r.den, num, den) {
			return failed, wrongf("%s: density %d/%d, library replay %d/%d", what, r.num, r.den, num, den)
		}
		if err := answers.checkWitness(s, ev, r); err != nil {
			return failed, fmt.Errorf("%s: %w", what, err)
		}
	}
	return failed, nil
}

// queryKey is the replica-side identity of a scheduled query: its
// canonical key, except that every core-exact spelling of one motif
// shares the exact optimum and hence one replay.
func queryKey(ev event) string {
	q, err := ev.query.ToQuery()
	if err != nil {
		return "invalid"
	}
	if nq, err := q.Normalized(); err == nil && nq.Algo == dsd.AlgoCoreExact {
		return "exact|" + nq.Psi() + "|v" + strconv.FormatInt(ev.version, 10)
	}
	return q.Key()
}

// replay memoizes the replica's answer per (graph, query key) and the
// witnesses already re-evaluated. It is shared by the per-graph
// verifiers; mu guards its fields, not the solves.
type replay struct {
	mu        sync.Mutex
	dens      map[string][2]int64
	witnessOK map[string]bool
	// resolve collects the replica's core-exact solves on versions after
	// the first, one per motif and version: the library's incremental
	// re-solve time.
	resolve []time.Duration
}

func newReplay() *replay {
	return &replay{dens: map[string][2]int64{}, witnessOK: map[string]bool{}}
}

func (a *replay) density(ctx context.Context, s *schedule, ev event) (int64, int64, error) {
	key := strconv.Itoa(ev.graph) + "|" + queryKey(ev)
	a.mu.Lock()
	d, ok := a.dens[key]
	a.mu.Unlock()
	if ok {
		return d[0], d[1], nil
	}
	q, err := ev.query.ToQuery()
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	res, err := s.replicas[ev.graph].Solve(ctx, q)
	if err != nil {
		return 0, 0, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if nq, _ := q.Normalized(); ev.version > 1 && nq.Algo == dsd.AlgoCoreExact {
		a.resolve = append(a.resolve, time.Since(t))
	}
	a.dens[key] = [2]int64{res.Density.Num, res.Density.Den}
	return res.Density.Num, res.Density.Den, nil
}

// checkWitness re-evaluates a response's witness on the replica, once
// per distinct (graph, version, query key).
func (a *replay) checkWitness(s *schedule, ev event, r rec) error {
	q, err := ev.query.ToQuery()
	if err != nil {
		return err
	}
	key := strconv.Itoa(ev.graph) + "|" + q.Key()
	a.mu.Lock()
	ok := a.witnessOK[key]
	a.mu.Unlock()
	if ok {
		return nil
	}
	res, err := s.replicas[ev.graph].EvaluateWitness(q, r.witness)
	if err != nil {
		return err
	}
	if !sameDensity(res.Density.Num, res.Density.Den, r.num, r.den) {
		return wrongf("witness of %d vertices evaluates to %d/%d, reported %d/%d",
			len(r.witness), res.Density.Num, res.Density.Den, r.num, r.den)
	}
	a.mu.Lock()
	a.witnessOK[key] = true
	a.mu.Unlock()
	return nil
}

// serveInputs generates the preloaded graphs (relabelled by seed) and
// writes them as edge lists under dir.
func serveInputs(seed int64, dir string) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	var files []string
	for _, sg := range serveGraphs {
		spec, err := datasets.Get(sg.dataset)
		if err != nil {
			return nil, err
		}
		g := relabel(spec.LoadDiv(1), rng)
		path := filepath.Join(dir, sg.name+".txt")
		if err := g.SaveEdgeList(path); err != nil {
			return nil, err
		}
		files = append(files, path)
	}
	return files, nil
}

// coldPass registers fresh copies of the graphs (edge lists from files)
// under names ending in suffix, asks each for its core-exact edge,
// triangle and 4-clique densities one query after another, checks the
// goldens, and deletes the copies. It returns each query's latency, in
// a fixed order; the registrations are not timed.
func coldPass(ctx context.Context, c *client.Client, files []string, suffix string) ([]float64, error) {
	for i, f := range files {
		edges, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if _, err := c.RegisterEdges(ctx, serveGraphs[i].name+suffix, string(edges)); err != nil {
			return nil, fmt.Errorf("register cold copy: %w", err)
		}
	}
	// Let the server's collector finish with the registration's garbage,
	// so the timed queries measure the solves and not that.
	time.Sleep(200 * time.Millisecond)
	var lat []float64
	for _, sg := range serveGraphs {
		for _, h := range []int{2, 3, 4} {
			gold := sg.gold[h]
			t := time.Now()
			resp, err := c.QueryV2(ctx, wire.QueryV2Request{Graph: sg.name + suffix, Query: wire.Query{H: h, Algo: "core-exact"}})
			lat = append(lat, sec(time.Since(t)))
			if err != nil {
				return nil, fmt.Errorf("cold pass on %s h=%d: %w", sg.name, h, err)
			}
			if resp.Result == nil || !sameDensity(resp.Result.DensityNum, resp.Result.DensityDen, gold[0], gold[1]) {
				return nil, wrongf("cold pass on %s h=%d: density %+v, golden %d/%d", sg.name, h, resp.Result, gold[0], gold[1])
			}
		}
	}
	for _, sg := range serveGraphs {
		if err := c.DeleteGraph(ctx, sg.name+suffix); err != nil {
			return nil, fmt.Errorf("delete cold copy: %w", err)
		}
	}
	return lat, nil
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// scrape reads the named un-labelled samples from dsdd's /metrics.
func scrape(ctx context.Context, hc *http.Client, base string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, sc.Err()
}

// runServe runs serve-mixed.
func runServe(cfg config) (*outcome, error) {
	if cfg.dsdd == "" {
		return nil, errors.New("serve-mixed needs -dsdd")
	}
	// Bounds the whole run, so that a stuck server still ends it inside
	// the three minutes a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+90*time.Second)
	defer cancel()
	conns := runtime.NumCPU()
	hc := newHTTPClient(conns)
	defer hc.CloseIdleConnections()

	var setups, bootRSS []float64
	var colds [][]float64 // per cold query, one latency per round
	var srv *server
	var files []string
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < bootRounds; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("serve-%d-%d", cfg.seed, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		fs, err := serveInputs(cfg.seed, dir)
		if err != nil {
			return nil, err
		}
		s, err := startServer(cfg.dsdd, dir, fs)
		if err != nil {
			return nil, err
		}
		srv, files = s, fs
		setups = append(setups, sec(time.Since(t)))
		rss, err := peakRSSMB(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		bootRSS = append(bootRSS, rss)
	}
	c := client.New(srv.base, hc)
	for k := 0; k < coldRounds; k++ {
		lat, err := coldPass(ctx, c, files, fmt.Sprintf("-cold%d", k))
		if err != nil {
			return nil, err
		}
		colds = append(colds, lat)
	}

	graphs := make([]*dsd.Graph, len(files))
	for i, f := range files {
		g, err := dsd.LoadEdgeList(f)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	sched, err := buildSchedule(ctx, graphs, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}

	stats0, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	met0, err := scrape(ctx, hc, srv.base, "go_alloc_bytes_total", "go_gc_cycles_total")
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	recs, late := play(ctx, sched, httpTarget{c}, conns)
	loadWall := time.Since(t0)
	cpu1, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	stats1, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	met1, err := scrape(ctx, hc, srv.base, "go_alloc_bytes_total", "go_gc_cycles_total", "go_heap_live_bytes")
	if err != nil {
		return nil, err
	}
	var rtts []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		if err := c.Health(ctx); err != nil {
			return nil, err
		}
		rtts = append(rtts, ms(time.Since(t)))
	}
	loadRSS, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	answers := newReplay()
	failed, err := verify(ctx, sched, recs, answers)
	if err != nil {
		return nil, err
	}
	lat := byKind(sched, recs)
	lateMs := make([]float64, len(late))
	for i, l := range late {
		lateMs[i] = ms(l)
	}
	lateP99 := quantile(lateMs, 0.99)

	out := &outcome{
		metrics:   map[string]float64{},
		attempted: len(sched.events),
		failed:    failed,
		valid:     lateP99 <= lateBoundMs,
	}
	m := out.metrics
	// As on the solve workloads, the cold pass is timed as the sum of each
	// query's fastest round.
	var passes []float64
	for q := range colds[0] {
		var rounds []float64
		for k := range colds {
			rounds = append(rounds, colds[k][q])
		}
		m["solve_s"] += minOf(rounds)
	}
	for _, lat := range colds {
		var p float64
		for _, l := range lat {
			p += l
		}
		passes = append(passes, p)
	}
	out.notes = append(out.notes, fmt.Sprintf("cold passes %.3f s", passes))
	out.notes = append(out.notes, fmt.Sprintf("%d requests: %d queries, %d mutations, %d streams; %d failed; generator late p99 %.3f ms (bound %.0f ms); dsdd busy %.0f%% of %d CPUs, peak RSS %.1f MB under load",
		len(sched.events), len(lat.query), len(lat.mutate), len(lat.final), failed, lateP99, lateBoundMs,
		100*(cpu1-cpu0)/(loadWall.Seconds()*float64(runtime.NumCPU())), runtime.NumCPU(), loadRSS))
	if !out.valid {
		fmt.Fprintf(os.Stderr, "dsdperf: run invalid: generator late p99 %.3f ms exceeds %.0f ms\n", lateP99, lateBoundMs)
	}
	m["setup_s"] = median(setups)
	// dsdd's CPU time over the load: the work the mix costs the server,
	// which waiting and queueing do not inflate.
	m["cpu_s"] = cpu1 - cpu0
	// The high-water mark under the load moves by a quarter across seeds
	// with GC timing alone; the one after boot and preload, median over
	// the boots, does not. The load's is in the notes.
	m["peak_rss_mb"] = median(bootRSS)
	m["query_p50_ms"] = quantile(lat.query, 0.5)
	m["query_p99_ms"] = quantile(lat.query, 0.99)
	m["mutate_p50_ms"] = quantile(lat.mutate, 0.5)
	m["mutate_p90_ms"] = quantile(lat.mutate, 0.9)
	m["stream_first_p50_ms"] = quantile(lat.first, 0.5)
	m["stream_final_p50_ms"] = quantile(lat.final, 0.5)
	if !cfg.trace {
		return out, nil
	}

	// Traced: play the same schedule again against an in-process Engine
	// configured as dsdd configures its own, on fresh copies of the graphs.
	reg := service.NewRegistry()
	for i, f := range files {
		if _, err := reg.RegisterFile(serveGraphs[i].name, f); err != nil {
			return nil, err
		}
	}
	eng := service.NewEngine(reg, service.Config{Timeout: 30 * time.Second})
	erecs, _ := play(ctx, sched, engineTarget{eng}, conns)
	efailed, err := verify(ctx, sched, erecs, answers)
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	elat := byKind(sched, erecs)

	for _, k := range []string{"motif.count_s", "motif.instances", "psicore.peel_s", "core.locate_s",
		"core.components", "core.located_frac", "component.self_s", "unattributed_s", "trace_overhead"} {
		m[k] = 0 // the load is not split below the Solver here; the solve workloads split it
	}
	var maxNodes int
	for i, r := range recs {
		if r.err != nil || r.cached || r.stats == nil || sched.events[i].kind == kindMutate {
			continue
		}
		st := r.stats
		m["psicore.decompose_s"] += st.DecomposeMs / 1e3
		m["iterative.presolve_s"] += st.PreSolveMs / 1e3
		m["iterative.iters"] += float64(st.PreSolveIters)
		m["iterative.skips"] += float64(st.PreSolveSkips)
		m["flow.probe_s"] += st.FlowMs / 1e3
		m["flow.probes"] += float64(st.FlowSolves)
		for _, n := range st.FlowNodes {
			maxNodes = max(maxNodes, n)
		}
	}
	m["flow.max_nodes"] = float64(maxNodes)
	var mutMs, firstMs []float64
	for _, d := range sched.mutateTimes {
		mutMs = append(mutMs, ms(d))
	}
	for _, d := range answers.resolve {
		firstMs = append(firstMs, ms(d))
	}
	m["solver.mutate_ms"] = median(mutMs)
	m["solver.resolve_ms"] = median(firstMs)
	m["plan.first_answer_ms"] = quantile(elat.first, 0.5)
	m["engine.query_ms"] = quantile(elat.query, 0.5)
	m["http.overhead_ms"] = quantile(lat.query, 0.5) - m["engine.query_ms"]
	m["http.rtt_ms"] = median(rtts)
	dq := float64(stats1.Queries - stats0.Queries)
	if dq > 0 {
		m["service.hit_ratio"] = float64(stats1.CacheHits-stats0.CacheHits) / dq
	}
	m["service.computes"] = float64(stats1.Computes - stats0.Computes)
	m["service.shed"] = float64(stats1.Shed - stats0.Shed)
	m["go.alloc_mb"] = (met1["go_alloc_bytes_total"] - met0["go_alloc_bytes_total"]) / mib
	m["go.gc_cycles"] = met1["go_gc_cycles_total"] - met0["go_gc_cycles_total"]
	m["go.heap_live_mb"] = met1["go_heap_live_bytes"] / mib
	m["bench.late_p99_ms"] = lateP99
	m["failed_frac"] = float64(failed) / float64(len(sched.events))
	out.notes = append(out.notes, fmt.Sprintf("in-process replay: %d failed", efailed))
	return out, nil
}

// latencies are one played schedule's latencies by kind, in ms.
type latencies struct {
	query, mutate, first, final []float64
}

func byKind(s *schedule, recs []rec) latencies {
	var l latencies
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		switch s.events[i].kind {
		case kindMutate:
			l.mutate = append(l.mutate, ms(r.lat))
		case kindStream:
			l.first = append(l.first, ms(r.first))
			l.final = append(l.final, ms(r.lat))
		default:
			l.query = append(l.query, ms(r.lat))
		}
	}
	return l
}
