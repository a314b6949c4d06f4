package optim

import (
	"math"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. lr is the
// global learning rate for this step (produced by a schedule.Schedule).
//
// Every optimizer is a snapshot participant: CaptureState serializes its
// per-parameter slots (momentum buffers, second-moment accumulators) and
// scalar counters keyed by parameter name, and RestoreState rebuilds them so
// a resumed run steps bit-for-bit identically to the uninterrupted one.
type Optimizer interface {
	Step(params []*nn.Param, lr float64)
	Name() string
	// CaptureState serializes the optimizer's slots over params (deep copy).
	CaptureState(params []*nn.Param) (checkpoint.Component, error)
	// RestoreState replaces the optimizer's slots from a captured component,
	// validating optimizer identity, parameter names and shapes.
	RestoreState(params []*nn.Param, c checkpoint.Component) error
}

// state holds per-parameter optimizer slots, lazily allocated.
type state map[*nn.Param][]*tensor.Tensor

func (s state) get(p *nn.Param, n int) []*tensor.Tensor {
	if sl, ok := s[p]; ok {
		return sl
	}
	sl := make([]*tensor.Tensor, n)
	for i := range sl {
		sl[i] = tensor.New(p.Data().Shape()...)
	}
	s[p] = sl
	return sl
}

// --- SGD ---------------------------------------------------------------------

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	Momentum    float64
	WeightDecay float64
	slots       state
}

// NewSGD returns SGD with the given momentum and weight decay.
func NewSGD(momentum, weightDecay float64) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, slots: state{}}
}

// Name implements Optimizer.
func (o *SGD) Name() string { return "sgd" }

// Step applies one update.
func (o *SGD) Step(params []*nn.Param, lr float64) {
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		v := o.slots.get(p, 1)[0]
		wd := float32(o.WeightDecay)
		if p.NoAdapt {
			wd = 0
		}
		mu := float32(o.Momentum)
		lrf := float32(lr)
		for i := range w.Data() {
			grad := g.Data()[i] + wd*w.Data()[i]
			v.Data()[i] = mu*v.Data()[i] + grad
			w.Data()[i] -= lrf * v.Data()[i]
		}
	}
}

// --- RMSProp -------------------------------------------------------------------

// RMSProp is the TensorFlow-flavoured RMSProp used by the original
// EfficientNet training setup: decay 0.9, momentum 0.9, epsilon 1e-3,
// with L2 weight decay added to the gradient.
type RMSProp struct {
	Decay       float64
	Momentum    float64
	Eps         float64
	WeightDecay float64
	slots       state
}

// NewRMSProp returns RMSProp with the EfficientNet defaults.
func NewRMSProp(weightDecay float64) *RMSProp {
	return &RMSProp{Decay: 0.9, Momentum: 0.9, Eps: 1e-3, WeightDecay: weightDecay, slots: state{}}
}

// Name implements Optimizer.
func (o *RMSProp) Name() string { return "rmsprop" }

// Step applies one update.
func (o *RMSProp) Step(params []*nn.Param, lr float64) {
	rho := float32(o.Decay)
	mu := float32(o.Momentum)
	eps := float32(o.Eps)
	lrf := float32(lr)
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		sl := o.slots.get(p, 2)
		ms, mom := sl[0], sl[1]
		wd := float32(o.WeightDecay)
		if p.NoAdapt {
			wd = 0
		}
		for i := range w.Data() {
			grad := g.Data()[i] + wd*w.Data()[i]
			ms.Data()[i] = rho*ms.Data()[i] + (1-rho)*grad*grad
			mom.Data()[i] = mu*mom.Data()[i] + lrf*grad/float32(math.Sqrt(float64(ms.Data()[i]))+float64(eps))
			w.Data()[i] -= mom.Data()[i]
		}
	}
}

// --- LARS ---------------------------------------------------------------------

// LARS implements Layer-wise Adaptive Rate Scaling (You, Gitman, Ginsburg
// 2017), the optimizer the paper uses to hold accuracy at batch sizes up to
// 65536. Each layer's update is rescaled by the trust ratio
// η·‖w‖/(‖g‖ + λ‖w‖), so layers with small weights relative to their
// gradients take proportionally smaller steps. Batch-norm parameters and
// biases (Param.NoAdapt) skip both adaptation and weight decay, following
// the paper's configuration.
type LARS struct {
	// Eta is the trust coefficient (You et al. use 0.001).
	Eta float64
	// Momentum is the SGD momentum applied after trust scaling.
	Momentum float64
	// WeightDecay is L2 regularization folded into the trust ratio.
	WeightDecay float64
	// Eps guards against division by zero for freshly-zero weights.
	Eps float64
	// UnadaptedLRScale multiplies the global LR for NoAdapt parameters
	// (batch-norm scale/shift and biases). LARS nominal LRs run two orders
	// of magnitude above plain-SGD LRs because the trust ratio shrinks
	// every adapted update; unadapted parameters see the LR raw, so
	// without this scale they blow up whenever gradients are not tiny.
	// 0.01 restores SGD-magnitude steps for them.
	UnadaptedLRScale float64
	slots            state
	// sc carries the trust-ratio norms' kernel-worker budget (nil = every
	// worker); ByName sets the engine's.
	sc *tensor.Scratch
}

// NewLARS returns LARS with trust coefficient 0.001, momentum 0.9 and
// unadapted-parameter LR scale 0.01.
func NewLARS(weightDecay float64) *LARS {
	return &LARS{Eta: 0.001, Momentum: 0.9, WeightDecay: weightDecay, Eps: 1e-9, UnadaptedLRScale: 0.01, slots: state{}}
}

// Name implements Optimizer.
func (o *LARS) Name() string { return "lars" }

// TrustRatio computes the layer-wise adaptation factor for a parameter with
// the given weight and gradient norms. Exposed for tests and analysis.
func (o *LARS) TrustRatio(wNorm, gNorm float64) float64 {
	denom := gNorm + o.WeightDecay*wNorm
	if wNorm == 0 || denom <= o.Eps {
		return 1
	}
	return o.Eta * wNorm / denom
}

// Step applies one update.
func (o *LARS) Step(params []*nn.Param, lr float64) {
	mu := float32(o.Momentum)
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		v := o.slots.get(p, 1)[0]
		var scale float64
		wd := float32(o.WeightDecay)
		if p.NoAdapt {
			// Unadapted parameters: plain momentum SGD at a rescaled LR,
			// no weight decay.
			scale = lr * o.UnadaptedLRScale
			wd = 0
		} else {
			scale = lr * o.TrustRatio(tensor.NormScratch(w, o.sc), tensor.NormScratch(g, o.sc))
		}
		sf := float32(scale)
		for i := range w.Data() {
			grad := g.Data()[i] + wd*w.Data()[i]
			v.Data()[i] = mu*v.Data()[i] + sf*grad
			w.Data()[i] -= v.Data()[i]
		}
	}
}

// --- Adam ---------------------------------------------------------------------

// Adam is the standard Adam optimizer with bias correction.
type Adam struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64
	step         int
	slots        state
}

// NewAdam returns Adam with the usual (0.9, 0.999, 1e-8) constants.
func NewAdam(weightDecay float64) *Adam {
	return &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay, slots: state{}}
}

// Name implements Optimizer.
func (o *Adam) Name() string { return "adam" }

// Step applies one update.
func (o *Adam) Step(params []*nn.Param, lr float64) {
	o.step++
	b1 := o.Beta1
	b2 := o.Beta2
	bc1 := 1 - math.Pow(b1, float64(o.step))
	bc2 := 1 - math.Pow(b2, float64(o.step))
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		sl := o.slots.get(p, 2)
		m, v := sl[0], sl[1]
		wd := float32(o.WeightDecay)
		if p.NoAdapt {
			wd = 0
		}
		for i := range w.Data() {
			grad := float64(g.Data()[i] + wd*w.Data()[i])
			m.Data()[i] = float32(b1*float64(m.Data()[i]) + (1-b1)*grad)
			v.Data()[i] = float32(b2*float64(v.Data()[i]) + (1-b2)*grad*grad)
			mhat := float64(m.Data()[i]) / bc1
			vhat := float64(v.Data()[i]) / bc2
			w.Data()[i] -= float32(lr * mhat / (math.Sqrt(vhat) + o.Eps))
		}
	}
}

// --- LAMB ---------------------------------------------------------------------

// LAMB (You et al. 2019) combines Adam's per-element adaptivity with a
// LARS-style layer-wise trust ratio; it trained BERT in 76 minutes and is
// the natural large-batch alternative the related-work section cites.
type LAMB struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64
	step         int
	slots        state
	// sc carries the trust-ratio norm's kernel-worker budget (nil = every
	// worker); ByName sets the engine's.
	sc *tensor.Scratch
}

// NewLAMB returns LAMB with standard constants.
func NewLAMB(weightDecay float64) *LAMB {
	return &LAMB{Beta1: 0.9, Beta2: 0.999, Eps: 1e-6, WeightDecay: weightDecay, slots: state{}}
}

// Name implements Optimizer.
func (o *LAMB) Name() string { return "lamb" }

// Step applies one update.
func (o *LAMB) Step(params []*nn.Param, lr float64) {
	o.step++
	b1, b2 := o.Beta1, o.Beta2
	bc1 := 1 - math.Pow(b1, float64(o.step))
	bc2 := 1 - math.Pow(b2, float64(o.step))
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		sl := o.slots.get(p, 2)
		m, v := sl[0], sl[1]
		wd := o.WeightDecay
		if p.NoAdapt {
			wd = 0
		}
		update := make([]float64, w.Len())
		var updNorm float64
		for i := range w.Data() {
			grad := float64(g.Data()[i])
			m.Data()[i] = float32(b1*float64(m.Data()[i]) + (1-b1)*grad)
			v.Data()[i] = float32(b2*float64(v.Data()[i]) + (1-b2)*grad*grad)
			u := (float64(m.Data()[i]) / bc1) / (math.Sqrt(float64(v.Data()[i])/bc2) + o.Eps)
			u += wd * float64(w.Data()[i])
			update[i] = u
			updNorm += u * u
		}
		updNorm = math.Sqrt(updNorm)
		ratio := 1.0
		if !p.NoAdapt {
			wNorm := tensor.NormScratch(w, o.sc)
			if wNorm > 0 && updNorm > 0 {
				ratio = wNorm / updNorm
			}
		}
		s := float32(lr * ratio)
		for i := range w.Data() {
			w.Data()[i] -= s * float32(update[i])
		}
	}
}

// --- SM3 ---------------------------------------------------------------------

// SM3 (Anil, Gupta, Koren, Singer 2019) is the memory-efficient adaptive
// optimizer named in the paper's future work (§5). Instead of a full
// second-moment tensor it keeps one accumulator per index of each dimension
// (rows+cols for a matrix), using the cover structure: the effective
// accumulator for an element is the minimum over the covers containing it.
type SM3 struct {
	Momentum    float64
	WeightDecay float64
	Eps         float64
	// accums[p][d] has length = p.Data().Dim(d).
	accums map[*nn.Param][][]float32
	moms   state
}

// NewSM3 returns SM3 with momentum 0.9.
func NewSM3(weightDecay float64) *SM3 {
	return &SM3{Momentum: 0.9, WeightDecay: weightDecay, Eps: 1e-12, accums: map[*nn.Param][][]float32{}, moms: state{}}
}

// Name implements Optimizer.
func (o *SM3) Name() string { return "sm3" }

// MemoryElems reports the number of accumulator elements SM3 keeps for a
// parameter of the given shape — the quantity the optimizer economizes
// compared to Adam's full-shape second moment.
func MemoryElems(shape []int) int {
	n := 0
	for _, d := range shape {
		n += d
	}
	return n
}

// Step applies one update.
func (o *SM3) Step(params []*nn.Param, lr float64) {
	mu := float32(o.Momentum)
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		shape := w.Shape()
		acc, ok := o.accums[p]
		if !ok {
			acc = make([][]float32, len(shape))
			for d, sz := range shape {
				acc[d] = make([]float32, sz)
			}
			o.accums[p] = acc
		}
		mom := o.moms.get(p, 1)[0]
		wd := float32(o.WeightDecay)
		if p.NoAdapt {
			wd = 0
		}
		// Walk elements with an odometer over the multi-index.
		idx := make([]int, len(shape))
		lrf := float32(lr)
		for i := range w.Data() {
			grad := g.Data()[i] + wd*w.Data()[i]
			// nu = min over covers + g².
			nu := acc[0][idx[0]]
			for d := 1; d < len(idx); d++ {
				if a := acc[d][idx[d]]; a < nu {
					nu = a
				}
			}
			nu += grad * grad
			// Write back max into every cover.
			for d := range idx {
				if nu > acc[d][idx[d]] {
					acc[d][idx[d]] = nu
				}
			}
			var upd float32
			if nu > 0 {
				upd = grad / float32(math.Sqrt(float64(nu))+o.Eps)
			}
			mom.Data()[i] = mu*mom.Data()[i] + upd
			w.Data()[i] -= lrf * mom.Data()[i]
			// Advance odometer.
			for d := len(idx) - 1; d >= 0; d-- {
				idx[d]++
				if idx[d] < shape[d] {
					break
				}
				idx[d] = 0
			}
		}
	}
}

// ByName constructs an optimizer from its lower-case name. Supported:
// sgd, rmsprop, lars, adam, lamb, sm3. The trust-ratio optimizers (lars,
// lamb) reduce their norms within sc's kernel-worker budget (nil = every
// worker).
func ByName(name string, weightDecay float64, sc *tensor.Scratch) (Optimizer, bool) {
	switch name {
	case "sgd":
		return NewSGD(0.9, weightDecay), true
	case "rmsprop":
		return NewRMSProp(weightDecay), true
	case "lars":
		o := NewLARS(weightDecay)
		o.sc = sc
		return o, true
	case "adam":
		return NewAdam(weightDecay), true
	case "lamb":
		o := NewLAMB(weightDecay)
		o.sc = sc
		return o, true
	case "sm3":
		return NewSM3(weightDecay), true
	}
	return nil, false
}
