// Command sbserver serves reconfiguration-as-a-service: each admitted
// scenario-run request from concurrent clients runs on the engine at once,
// and its observer event stream is answered live over NDJSON or SSE.
// Deterministic (DES) runs are memoized in a content-addressed result
// cache and concurrent identical requests share one engine run
// (singleflight); every response says how it was served in its X-Cache
// header. Admission is a fixed limit per class: interactive requests may
// hold -queue slots and bulk requests (?class=bulk) the -bulk-share of them,
// at least one; a request over its class's limit is answered 429. See
// internal/server for the service itself and cmd/sbserver/README.md for a
// curl quickstart.
//
// Usage:
//
//	sbserver [-addr :8080] [-queue 64] [-seed 1] [-drain 10s]
//	         [-cache-bytes 67108864] [-bulk-share 0.5] [-peer-probe]
//
// With -peer-probe (off by default), a replica running behind cmd/sbgate
// honours the gateway's X-Peer-Probe header: on an engine-path cache miss
// it first asks the named peer's /v1/peek for the recording, adopting a
// warm result instead of re-running the engine — the mechanism behind
// lossless drain hand-offs and scale-in cache warm-up. Set it only on
// replicas that clients reach through the gateway alone: the header names
// the server to trust, so a direct client could plant a forged recording.
//
// SIGINT/SIGTERM starts a graceful shutdown: new requests are refused
// with 503 while in-flight runs get -drain to finish; whatever is still
// running then is force-cancelled (the engine leaves every surface
// connected and rolled back to an atomic motion boundary).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		queue     = flag.Int("queue", 64, "pending requests the interactive class may hold (overflow answers 429)")
		seed      = flag.Int64("seed", 1, "engine base seed (per-request seeds override)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		cacheB    = flag.Int64("cache-bytes", 64<<20, "result cache budget in bytes (negative disables)")
		bulkShare = flag.Float64("bulk-share", 0.5, "fraction of -queue the bulk class may hold (at least one)")
		peerProbe = flag.Bool("peer-probe", false, "honour X-Peer-Probe headers (cache peering behind sbgate only)")
		peerTO    = flag.Duration("peer-timeout", 750*time.Millisecond, "per peer-probe budget")
	)
	flag.Parse()

	s := server.New(server.Config{
		QueueCap: *queue,
		Seed:     *seed,
		CacheBytes: func() int64 {
			if *cacheB == 0 {
				return -1 // flag 0 means "no cache", Config 0 means "default"
			}
			return *cacheB
		}(),
		BulkShare:   *bulkShare,
		PeerProbe:   *peerProbe,
		PeerTimeout: *peerTO,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sbserver: listening on %s (queue=%d cache=%dB peer-probe=%v)\n",
		*addr, *queue, *cacheB, *peerProbe)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "sbserver: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sbserver: %v — draining for up to %v\n", sig, *drain)
	}

	// Drain the service first (503 on new work, in-flight runs finish or
	// are force-cancelled at the deadline), then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sbserver: force-cancelled in-flight runs: %v\n", err)
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = httpSrv.Close()
	}
	fmt.Fprintln(os.Stderr, "sbserver: stopped")
}
