// Package tensor implements the dense float32 tensor engine that underpins
// the whole training stack: shapes, element-wise kernels, a blocked
// parallel matrix multiply, im2col convolutions (normal and depthwise) with
// their backward passes, pooling and reductions.
//
// Layout is row-major. Convolutional tensors use NCHW (batch, channel,
// height, width), matching the layout discussion in the paper's §2.
//
// # Kernel architecture
//
// The matrix multiply is cache-blocked in the GotoBLAS style (see
// matmul.go): k is cut into gemmKC-deep slabs, B is packed once per slab
// into 16-wide k-major column panels, and each gemmMC-row block of A is
// packed into 4-high k-major row panels consumed by a register-tiled 4×16
// micro-kernel. On amd64 machines with AVX2+FMA (detected at startup via
// CPUID, gemm_amd64.go) the micro-kernel is hand-written assembly; edge
// tiles run narrower 4×8/4×4 assembly kernels against the same packed
// panels, and other architectures fall back to a portable Go kernel.
// Every output element accumulates in ascending-k order regardless of its
// tile position, so results are independent of batch raggedness: batch-1
// and batch-N runs produce bitwise-equal values.
//
// Convolutions lower onto that GEMM through im2col; pointwise 1×1 convs
// skip the lowering entirely (stride 1 multiplies the activation matrix
// in place; larger strides gather into a dense matrix first), and the
// depthwise kernels split each plane into a branch-free interior and a
// bounds-checked border (depthwise.go).
//
// # Scratch arenas
//
// Kernel temporaries — im2col column matrices, packing panels, gathered
// 1×1 grids, per-chunk weight-gradient partials — come from a Scratch
// arena of size-classed buffer pools rather than make, so the Into
// variants (Conv2DInto, Conv2DBackwardInto, MatMulInto, ...) allocate
// nothing in steady state (proved by BenchmarkConv's allocs/op). Passing
// a nil *Scratch uses a process-wide arena; the replica engine owns one
// arena per engine and threads it through nn.Ctx.Scratch.
//
// The arena also carries the engine's kernel-worker budget
// (Scratch.Workers): how many goroutines one kernel may fan out to. The
// budget only schedules work. Reductions sum fixed-size spans and the
// convolution weight gradient merges partials cut by batch size, so every
// kernel's bits are the same at any worker count
// (TestResultsIndependentOfWorkerCount).
//
// # Correctness and performance harness
//
// oracle_test.go checks every kernel path (FMA and portable, forced via
// forceFMA) against float64 reference implementations with a
// k-proportional ULP tolerance, including zero-times-NaN propagation —
// the kernels deliberately contain no sparsity skips, since 0·NaN must
// stay NaN. fuzz_test.go extends the oracles over fuzzed shapes and pins
// the im2col/col2im adjoint identity; seed corpora live under testdata.
// Performance is gated by cmd/benchdiff comparing BenchmarkStep /
// BenchmarkMatMul / BenchmarkConv against the committed
// BENCH_BASELINE.json in CI.
//
// Seams: Tensor is the storage type everything above shares; kernels
// parallelize through package parallel so host-CPU parallelism policy stays
// in one place. The compute timed by the telemetry subsystem's forward/
// backward phases is ultimately these kernels.
package tensor
