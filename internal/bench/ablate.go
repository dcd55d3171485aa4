package bench

import (
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/rubin"
)

// Ablation names one configuration variant of the RUBIN channel; the
// ablation bench (experiment E6) quantifies each Section IV optimization
// by disabling it in isolation.
type Ablation struct {
	Name   string
	Mutate func(*model.Params, *rubin.Config)
}

// Ablations returns the studied variants.
func Ablations() []Ablation {
	return []Ablation{
		{Name: "full (all optimizations)", Mutate: nil},
		{Name: "no selective signaling", Mutate: func(p *model.Params, c *rubin.Config) {
			c.SignalInterval = 1
		}},
		{Name: "no doorbell batching", Mutate: func(p *model.Params, c *rubin.Config) {
			c.PostBatch = 1
		}},
		{Name: "no inline sends", Mutate: func(p *model.Params, c *rubin.Config) {
			c.Inline = false
		}},
		{Name: "zero-copy receive (projected)", Mutate: func(p *model.Params, c *rubin.Config) {
			c.ZeroCopyReceive = true
		}},
	}
}

// runAblation measures the channel echo under one variant/payload point.
func runAblation(ab Ablation, cfg EchoConfig, params model.Params) (EchoResult, error) {
	p := params
	var mutate func(*rubin.Config)
	if ab.Mutate != nil {
		mutate = func(c *rubin.Config) { ab.Mutate(&p, c) }
	}
	return echoChannelCfg(cfg, p, mutate)
}

// ---------------------------------------------------------------------------
// Registry entry: E6 (Section IV optimization ablations).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E6",
		Title:  "RUBIN channel optimization ablations (echo mean RTT)",
		Figure: "paper Section IV/V",
		Knobs: []Knob{
			{"payloads_kb", "1,4,16,64,100", "2", 1, list},
			{"messages", "1000", "150", 1, scalar},
			{"warmup", "50", "20", 0, scalar},
			// Saturate the selector thread so per-message overheads
			// are on the critical path (idle gaps would otherwise
			// hide them).
			{"window", "8", "", 1, scalar},
		},
		Run: runE6,
	})
}

func runE6(rc RunContext, v KnobValues, res *metrics.Result) error {
	for _, ab := range Ablations() {
		mean := res.AddSeries(ab.Name, metrics.MetricLatencyMean, "us", "rdma", "payload_kb")
		for _, kb := range v.Ints("payloads_kb") {
			r, err := runAblation(ab, echoConfig(rc, v, kb), rc.Model)
			if err != nil {
				return err
			}
			mean.Add(float64(kb), r.MeanRT.Micros())
		}
	}
	return nil
}
