package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// Request classes of the serve-mix stream.
const (
	classHit      = "hit"      // a warm key: answered from the cache
	classCold     = "cold"     // a never-seen key: explored
	classFollower = "follower" // repeats the cold key sent just before it
)

// mixSize is how much traffic one serve-mix repetition carries.
type mixSize struct {
	requests, warmKeys   int
	exploreBudget        int // warm `explore` keys: this + i
	anonBudget           int // warm `explore-anon` keys: this + i
	coldBudget           int // cold keys: this + serial, never seen before
	probeOps, probeCells int // traced pass: direct calls per function
}

func mixSizeOf(sc scale) mixSize {
	if sc == smoke {
		return mixSize{requests: 40, warmKeys: 4, exploreBudget: 401, anonBudget: 6001, coldBudget: 801,
			probeOps: 100, probeCells: 1}
	}
	return mixSize{requests: 4000, warmKeys: 32, exploreBudget: 5_001, anonBudget: 8_001, coldBudget: 40_001,
		probeOps: 2000, probeCells: 5}
}

// mixRequest is one request of the stream: its class, the body posted,
// and what identifies the verdict it must get.
type mixRequest struct {
	class string
	body  []byte
	warm  int // hits: index into the warm set
	cold  int // cold and follower: the cold key's serial
}

// warmSet is the keys loaded into the cache during set-up: half
// `explore` (Algorithm 1 at n=4 k=2, default inputs), half
// `explore-anon` (the process-symmetric toy-bit race at n=4). Keys
// differ in max_configs, which is part of the cache key.
func warmSet(size mixSize) []serve.Request {
	var reqs []serve.Request
	for i := 0; i < size.warmKeys; i++ {
		if i%2 == 0 {
			reqs = append(reqs, serve.Request{Row: "explore", N: 4, K: 2, MaxConfigs: size.exploreBudget + i})
		} else {
			reqs = append(reqs, serve.Request{Row: "explore-anon", N: 4, K: 2,
				Inputs: []int{0, 0, 1, 1}, MaxConfigs: size.anonBudget + i})
		}
	}
	return reqs
}

func coldRequest(size mixSize, serial int) serve.Request {
	return serve.Request{Row: "explore", N: 4, K: 2, MaxConfigs: size.coldBudget + serial}
}

// genStream generates the request stream from the seed alone. The class
// counts are the same for every seed — 92% hits on warm keys, 5% cold,
// 3% followers, each follower sent right after the cold request whose
// key it repeats — and the seed shuffles their order and picks the hit
// keys, so every seed asks for the same amount of exploration. A hit on
// an `explore-anon` key carries a fresh permutation of the warm inputs:
// the same orbit, hence the same cache key, but only after the server
// has computed the orbit fingerprint.
func genStream(seed int64, size mixSize) []mixRequest {
	rng := rand.New(rand.NewSource(seed))
	warm := warmSet(size)
	encode := func(req serve.Request) []byte {
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a struct of ints and strings always encodes
		}
		return body
	}
	colds := size.requests * 5 / 100
	followers := size.requests * 3 / 100
	hits := size.requests - colds - followers

	// A unit is what must stay together: a hit, a lone cold request, or
	// a cold request and its follower.
	const (
		unitHit = iota
		unitCold
		unitPair
	)
	units := make([]int, 0, hits+colds)
	for i := 0; i < hits+colds; i++ {
		switch {
		case i < hits:
			units = append(units, unitHit)
		case i < hits+followers:
			units = append(units, unitPair)
		default:
			units = append(units, unitCold)
		}
	}
	rng.Shuffle(len(units), func(a, b int) { units[a], units[b] = units[b], units[a] })

	stream := make([]mixRequest, 0, size.requests)
	serial := 0
	for _, unit := range units {
		if unit == unitHit {
			i := rng.Intn(len(warm))
			req := warm[i]
			if req.Row == "explore-anon" {
				req.Inputs = append([]int(nil), req.Inputs...)
				rng.Shuffle(len(req.Inputs), func(a, b int) { req.Inputs[a], req.Inputs[b] = req.Inputs[b], req.Inputs[a] })
			}
			stream = append(stream, mixRequest{class: classHit, body: encode(req), warm: i})
			continue
		}
		body := encode(coldRequest(size, serial))
		stream = append(stream, mixRequest{class: classCold, body: body, cold: serial})
		if unit == unitPair {
			stream = append(stream, mixRequest{class: classFollower, body: body, cold: serial})
		}
		serial++
	}
	return stream
}

// mixResponse is what a client saw for one request.
type mixResponse struct {
	code      int
	latency   time.Duration
	cached    bool
	coalesced bool
	result    sweep.Result
	err       error
}

// cachedVerdict is the part of a record a cached answer must reproduce.
type cachedVerdict struct {
	status  string
	states  int
	decided string
}

func verdictOf(res sweep.Result) cachedVerdict {
	return cachedVerdict{res.Status, res.States, fmt.Sprint(res.Decided)}
}

// post sends one /check request and reads the whole reply.
func post(client *http.Client, url string, body []byte) mixResponse {
	start := time.Now()
	resp, err := client.Post(url+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return mixResponse{err: err, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	out := mixResponse{code: resp.StatusCode, err: err, latency: time.Since(start)}
	if err == nil && resp.StatusCode == http.StatusOK {
		var cr serve.CheckResponse
		out.err = json.Unmarshal(data, &cr)
		out.cached, out.coalesced, out.result = cr.Cached, cr.Coalesced, cr.Result
	}
	return out
}

// mixClients is the closed loop: this many clients, one connection
// each, every one sending its next request when its last is answered.
const mixClients = 2

// runServeMix is the serve-mix workload: an in-process serve.Server
// behind httptest with a persistent cache directory, the warm set
// loaded during set-up, then the seeded stream sent by a closed loop of
// two clients. Every request is one verdict-checked operation.
//
// The server runs one check at a time (each on all cores), so a cold
// request that arrives during another waits in the admission queue:
// with two slots and two clients admission would never be contended,
// and two overlapping explorations made the process's peak RSS a matter
// of GC timing (197-314 MB over 14 runs, against 88-98 MB with one).
func runServeMix(r *rep) {
	size := mixSizeOf(r.scale)
	srv, err := serve.New(serve.Config{Parallelism: 1, MaxQueue: 16, CacheDir: filepath.Join(r.dir, "cache")})
	if err != nil {
		r.check(false, "set-up: %v", err)
		return
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain(context.Background())
	}()
	clients := make([]*http.Client, mixClients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		defer clients[i].CloseIdleConnections()
	}

	warm := warmSet(size)
	warmVerdicts := make([]cachedVerdict, len(warm))
	for i, req := range warm {
		body, _ := json.Marshal(req)
		resp := post(clients[0], ts.URL, body)
		r.check(resp.err == nil && resp.code == http.StatusOK && !resp.cached && resp.result.Status == sweep.StatusOK,
			"serve-mix warm %d: code %d status %q err %v", i, resp.code, resp.result.Status, resp.err)
		warmVerdicts[i] = verdictOf(resp.result)
	}
	stream := genStream(r.rng.Int63(), size)

	responses := make([]mixResponse, len(stream))
	var next atomic.Int64
	r.timed("serve.closed_loop", func(span int) error {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(stream) {
						return
					}
					start := time.Now()
					responses[i] = post(clients[c], ts.URL, stream[i].body)
					r.rec.add(span, c+1, "serve.request", start, start.Add(responses[i].latency),
						map[string]string{"class": stream[i].class})
				}
			}()
		}
		wg.Wait()
		return nil
	})

	// Verdicts. A cold key must be executed exactly once among the cold
	// request and its follower; which of the two a race makes the leader
	// does not matter, so that is checked per key.
	lat := map[string][]float64{}
	counts := map[string]int{}
	executed := map[int]int{}
	followers, followersJoined := 0, 0
	for i, req := range stream {
		resp := responses[i]
		ms := resp.latency.Seconds() * 1000
		r.lat = append(r.lat, ms)
		lat[req.class] = append(lat[req.class], ms)
		ok := resp.err == nil && resp.code == http.StatusOK
		switch {
		case resp.code == http.StatusServiceUnavailable:
			counts["refused"]++
		case resp.cached:
			counts["cached"]++
		case resp.coalesced:
			counts["coalesced"]++
		default:
			counts["executed"]++
		}
		if req.class == classHit {
			ok = ok && resp.cached && verdictOf(resp.result) == warmVerdicts[req.warm]
		} else {
			ok = ok && resp.result.Status == sweep.StatusOK && resp.result.States == size.coldBudget+req.cold
			if ok && !resp.cached && !resp.coalesced {
				executed[req.cold]++
			}
			if req.class == classFollower {
				followers++
				if resp.cached || resp.coalesced {
					followersJoined++
				}
			}
		}
		r.check(ok, "serve-mix request %d (%s): code %d cached %v coalesced %v status %q states %d err %v",
			i, req.class, resp.code, resp.cached, resp.coalesced, resp.result.Status, resp.result.States, resp.err)
	}
	colds := len(lat[classCold])
	once := 0
	for _, n := range executed {
		if n == 1 {
			once++
		}
	}
	r.check(once == colds, "serve-mix: %d of %d cold keys executed exactly once", once, colds)

	var stats struct {
		Cache     serve.CacheStats `json:"cache"`
		Coalesced int64            `json:"coalesced"`
	}
	statsErr := getJSON(clients[0], ts.URL+"/cache/stats", &stats)
	r.check(statsErr == nil && int(stats.Cache.Stores) == len(warm)+colds && int(stats.Coalesced) == counts["coalesced"],
		"serve-mix: /cache/stats stores %d coalesced %d, want %d and %d (err %v)",
		stats.Cache.Stores, stats.Coalesced, len(warm)+colds, counts["coalesced"], statsErr)

	r.layer["serve.req_per_s"] = float64(len(stream)) / r.wall.Seconds()
	r.layer["serve.hit_p50_ms"] = percentile(lat[classHit], 50)
	r.layer["serve.hit_p99_ms"] = percentile(lat[classHit], 99)
	r.layer["serve.cold_p50_ms"] = percentile(lat[classCold], 50)
	r.layer["serve.cold_p90_ms"] = percentile(lat[classCold], 90)
	for _, name := range []string{"cached", "coalesced", "executed", "refused"} {
		r.layer["serve."+name] = float64(counts[name])
	}
	if followers > 0 {
		r.layer["serve.coalesce_ratio"] = float64(followersJoined) / float64(followers)
	}
	if r.traced() {
		serveProbes(r, size, stream)
	}
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}

// serveProbes times the serving layer's exported steps directly, one
// at a time and uncontended, so that a hit's latency can be split into
// decode, cache key, cache lookup and everything else (HTTP, JSON
// encoding of the reply, the client), and a cold request's into
// admission, the sweep cell and the cache store.
func serveProbes(r *rep, size mixSize, stream []mixRequest) {
	perOpUS := func(ops int, start time.Time) float64 {
		return time.Since(start).Seconds() * 1e6 / float64(ops)
	}
	n := min(size.probeOps, len(stream))

	reqs := make([]serve.Request, n)
	start := time.Now()
	for i := range reqs {
		req, err := serve.DecodeRequest(bytes.NewReader(stream[i].body))
		if err != nil {
			r.check(false, "serve probe: decode: %v", err)
			return
		}
		reqs[i] = req
	}
	r.layer["serve.decode_us"] = perOpUS(n, start)

	keys := make([]string, n)
	start = time.Now()
	for i, req := range reqs {
		keys[i], _ = req.CacheKey()
	}
	r.layer["serve.cache_key_us"] = perOpUS(n, start)

	// The cold cell, run directly: what a cold request costs below the
	// serving layer. Fresh budgets keep the runs honest repeats.
	var cellMS []float64
	var rec sweep.Result
	for i := 0; i < size.probeCells; i++ {
		cell := coldRequest(size, len(stream)+i).Cell(0)
		start = time.Now()
		rec = sweep.RunCellRecordCtx(context.Background(), cell)
		cellMS = append(cellMS, time.Since(start).Seconds()*1000)
		r.check(rec.Status == sweep.StatusOK, "serve probe: cold cell status %q %s", rec.Status, rec.Error)
	}
	r.layer["serve.run_cell_ms"] = median(cellMS)

	cache, err := serve.NewCache(filepath.Join(r.dir, "probe-cache"))
	if err != nil {
		r.check(false, "serve probe: cache: %v", err)
		return
	}
	start = time.Now()
	for _, key := range keys {
		cache.Put(key, rec)
	}
	r.layer["serve.cache_put_us"] = perOpUS(n, start)
	start = time.Now()
	hits := 0
	for _, key := range keys {
		if _, ok := cache.Get(key); ok {
			hits++
		}
	}
	r.layer["serve.cache_get_us"] = perOpUS(n, start)
	r.check(hits == n, "serve probe: %d of %d scratch-cache lookups hit", hits, n)

	adm := serve.NewAdmission(2, 0, 16)
	start = time.Now()
	for i := 0; i < n; i++ {
		release, err := adm.Acquire(context.Background(), 0)
		if err != nil {
			r.check(false, "serve probe: admission: %v", err)
			return
		}
		release()
	}
	r.layer["serve.admit_us"] = perOpUS(n, start)

	r.layer["serve.http_overhead_us"] = r.layer["serve.hit_p50_ms"]*1000 -
		(r.layer["serve.decode_us"] + r.layer["serve.cache_key_us"] + r.layer["serve.cache_get_us"])
}
