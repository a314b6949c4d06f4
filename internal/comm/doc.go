// Package comm implements the collective-communication layer in two forms:
//
//  1. Functional collectives — ring, tree and hierarchical 2-D torus
//     all-reduces plus all-gather, reduce-scatter and broadcast over
//     goroutine "replicas" that share memory, all behind the Collective
//     interface (see collective.go). The mini-scale distributed training
//     runs actually move gradient and batch-norm statistics through these,
//     and each algorithm sums in its own order, so the algorithm choice is
//     visible in the bits.
//
//  2. An analytic α-β cost model for the same collectives on a TPU-v3
//     slice's 2-D (torus) interconnect (see cost.go), used by the pod
//     simulator to produce Table 1's "% of time spent on All-Reduce" column
//     and by the Auto collective to pick an algorithm per call.
//
// Seams: the Collective interface (AllReduce, AllReduceF64, AllGather,
// ReduceScatter, Broadcast, Barrier, Algorithm) is what every consumer
// programs against; Provider values (RingProvider, TreeProvider,
// Torus2DProvider, AutoProvider, ProviderByName) both wire the executable
// endpoints (Connect) and price the identical algorithm under the cost
// model (ModelAllReduce), so the algorithm the simulator charges and the
// algorithm training runs cannot drift apart. Observer + Instrument /
// InstrumentProvider add per-call accounting (operation, algorithm, payload
// bytes, rank wall time) without touching the algorithms — the telemetry
// subsystem's view into every collective, and the capture side of
// `podbench -validate`'s measured-vs-modeled comparison.
//
// Transport: World and Peer are a shared-memory transport. Every collective
// runs the same steps: each rank publishes its buffer, the world crosses a
// barrier, each rank folds the chunk it owns (chunk (rank+1) mod n, per
// chunkBounds) from all published buffers into its own scratch, the world
// crosses a second barrier, and each rank copies the result out. The fold
// reproduces, bit for bit, the summation order of the message-passing
// algorithm it stands for:
//
//   - ring: chunk c is x_c + x_{c+1} + … + x_{c+n−1} (ranks mod n, summed
//     left to right) — the order in which a ring reduce-scatter carries the
//     chunk from rank c around to rank c−1;
//   - tree (power-of-two worlds): the recursive-doubling pairing, i.e. the
//     balanced sum (x0+x1)+(x2+x3)… over rank indices; other worlds run the
//     ring and say so in Algorithm();
//   - torus2d: composed from the ring primitives of its row and column
//     worlds — reduce-scatter along the row, all-reduce of the owned share
//     along the column, all-gather along the row.
//
// The α-β cost model and the Observer's byte counts describe the
// message-passing algorithms, which is what a pod runs; in-process the
// exchange is two barriers and a copy, with no staging buffers, so a warm
// world allocates nothing.
//
// Paper: §3.4 (topology-aware all-reduce on the 2-D torus, following Ying
// et al.) and Table 1's communication-share column.
package comm
