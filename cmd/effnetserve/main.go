// Command effnetserve serves predictions from a trained EfficientNet
// checkpoint over HTTP, with dynamic request batching — the serving-side
// dual of the paper's large-batch training insight: concurrent requests
// coalesce into one batched tape-free forward, amortizing per-forward fixed
// costs (and, on multi-core hosts, engaging the batch-parallel convolution
// kernels).
//
// Boot from a weights-only checkpoint or from a training snapshot
// directory; the latter is watched, and newer snapshots hot-swap in without
// dropping in-flight requests:
//
//	effnetserve -snapshot-dir runs/exp1/snapshots -addr :8080
//
// Endpoints: POST /predict ({"pixels": [...]} flattened 3×res×res NCHW),
// GET /healthz, GET /stats (batch-size histogram, queue depth, p50/p95/p99
// latency from the serve telemetry).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/serve"
)

func main() {
	var (
		checkpointPath = flag.String("checkpoint", "", "weights-only checkpoint to serve (exclusive with -snapshot-dir)")
		snapshotDir    = flag.String("snapshot-dir", "", "training snapshot directory to serve; watched for hot reload")
		poll           = flag.Duration("poll", 2*time.Second, "snapshot-dir polling interval for hot reload (<0 disables)")
		addr           = flag.String("addr", ":8080", "HTTP listen address")
		maxBatch       = flag.Int("max-batch", 32, "max requests coalesced into one forward")
		maxWait        = flag.Duration("max-wait", 2*time.Millisecond, "max time a request waits for its batch to fill")
		workers        = flag.Int("workers", 1, "concurrent inference workers")
		queueCap       = flag.Int("queue-cap", 0, "admission queue bound before load shedding (0 = 4×max-batch)")
		useBF16        = flag.Bool("bf16", false, "run inference with bf16 convolutions (emulated; fp32 is faster off-TPU)")
		jsonlPath      = flag.String("telemetry-jsonl", "", "stream per-batch serve telemetry (kind serve_batch) to this JSONL file")
		runLabel       = flag.String("run", "", "label stamped into telemetry lines as \"run\"")
	)
	flag.Parse()

	precision := bf16.FP32Policy
	if *useBF16 {
		precision = bf16.DefaultPolicy
	}

	provider, cleanup, err := buildProvider(*checkpointPath, *snapshotDir, *poll)
	if err != nil {
		fmt.Fprintln(os.Stderr, "effnetserve:", err)
		os.Exit(2)
	}
	defer cleanup()

	var sinks []serve.Sink
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "effnetserve:", err)
			os.Exit(2)
		}
		defer f.Close()
		sink := serve.NewJSONL(f)
		sink.Label = *runLabel
		sinks = append(sinks, sink)
	}

	cfg := serve.Config{
		Provider:  provider,
		MaxBatch:  *maxBatch,
		MaxWait:   *maxWait,
		Workers:   *workers,
		QueueCap:  *queueCap,
		Precision: precision,
		Sinks:     sinks,
	}

	if err := runServer(cfg, *addr, provider); err != nil {
		fmt.Fprintln(os.Stderr, "effnetserve:", err)
		os.Exit(1)
	}
}

// buildProvider resolves the weights source: a checkpoint file or a watched
// snapshot directory.
func buildProvider(checkpointPath, snapshotDir string, poll time.Duration) (serve.ModelProvider, func(), error) {
	if checkpointPath != "" && snapshotDir != "" {
		return nil, nil, errors.New("set only one of -checkpoint and -snapshot-dir")
	}
	if checkpointPath == "" && snapshotDir == "" {
		return nil, nil, errors.New("need -checkpoint or -snapshot-dir")
	}
	l, err := serve.NewLoader(serve.LoaderConfig{
		WeightsPath: checkpointPath,
		SnapshotDir: snapshotDir,
		Poll:        poll,
		OnSwap:      func(tag string) { fmt.Printf("effnetserve: hot-reloaded %s\n", tag) },
		OnError:     func(err error) { fmt.Fprintln(os.Stderr, "effnetserve: reload:", err) },
	})
	if err != nil {
		return nil, nil, err
	}
	return l, l.Close, nil
}

// --- HTTP server -------------------------------------------------------------

const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so idle or slow connections cannot pin goroutines.
	readHeaderTimeout = 10 * time.Second
	// bytesPerPixel bounds one pixel's JSON encoding: the longest float64
	// rendering ("-2.2250738585072014e-308", 24 bytes) plus a separator and
	// a space, rounded up. A client that prints float64 values fits; a body
	// larger than the image it must describe is refused before decoding.
	bytesPerPixel = 32
	// bodySlack covers the JSON envelope around the pixel array.
	bodySlack = 4 << 10
)

type predictRequest struct {
	Pixels []float32 `json:"pixels"`
}

type predictResponse struct {
	Class     int       `json:"class"`
	Logits    []float32 `json:"logits"`
	Model     string    `json:"model"`
	BatchSize int       `json:"batch_size"`
	LatencyMS float64   `json:"latency_ms"`
}

func runServer(cfg serve.Config, addr string, provider serve.ModelProvider) error {
	b, err := serve.NewBatcher(cfg)
	if err != nil {
		return err
	}

	maxBody := int64(b.SampleLen())*bytesPerPixel + bodySlack
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		var req predictRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		p, err := b.Predict(req.Pixels)
		switch {
		case errors.Is(err, serve.ErrOverloaded):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case errors.Is(err, serve.ErrClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, predictResponse{
			Class:     p.Class,
			Logits:    p.Logits,
			Model:     p.Model,
			BatchSize: p.BatchSize,
			LatencyMS: float64(p.Latency) / 1e6,
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, tag := provider.Current()
		writeJSON(w, map[string]any{"status": "ok", "model": tag})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		_, tag := provider.Current()
		stats := struct {
			serve.StatsSnapshot
			Model   string `json:"model"`
			Reloads int64  `json:"reloads"`
		}{StatsSnapshot: b.Stats(), Model: tag}
		if l, ok := provider.(*serve.Loader); ok {
			stats.Reloads = l.Reloads()
		}
		writeJSON(w, stats)
	})

	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("effnetserve: serving res %d, %d classes on %s (max-batch %d, max-wait %v)\n",
			b.Resolution(), b.Classes(), addr, cfg.MaxBatch, cfg.MaxWait)
		errc <- srv.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		b.Close()
		return err
	case s := <-sig:
		fmt.Printf("effnetserve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if cerr := b.Close(); err == nil {
			err = cerr
		}
		return err
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
