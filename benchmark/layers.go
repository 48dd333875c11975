package main

import (
	"fmt"
	"strings"
	"time"

	"protego/internal/world"
)

// lsmHooks are the hooks whose per-call cost the traced run reports.
var lsmHooks = [...]string{
	"ExecCheck", "SetuidCheck", "SetgidCheck", "MountCheck", "UmountCheck",
	"FileOpen", "SocketCreate", "BindCheck", "IoctlCheck",
}

// usage accumulates the counters and LSM hook histograms of machines,
// read through the tracer's public API. Adding a machine with sign -1
// before a measurement and +1 after leaves the work done in between.
type usage struct {
	sysExits, events, hookEvals, decisions, denies float64
	dcacheHits, dcacheMisses, dcacheInvals         float64
	mountIdxHits, nfFastpath                       float64
	hookCalls, hookNs                              [len(lsmHooks)]float64
}

func (u *usage) add(m *world.Machine, sign float64) {
	tr := m.K.Trace
	st := tr.Stats()
	u.sysExits += sign * float64(st.ByKind["sys-exit"])
	u.events += sign * float64(st.Emitted)
	u.hookEvals += sign * float64(st.ByKind["lsm"])
	for k, v := range tr.Counters() {
		// Keys of netfilter, auth and fault counters are "<kind>:<name>".
		if strings.Contains(k.Hook, ":") {
			continue
		}
		u.decisions += sign * float64(v)
		if k.Decision == "deny" {
			u.denies += sign * float64(v)
		}
	}
	fp := tr.FastpathCounters()
	u.dcacheHits += sign * float64(fp["dcache.hit"])
	u.dcacheMisses += sign * float64(fp["dcache.miss"])
	u.dcacheInvals += sign * float64(fp["dcache.invalidate"])
	u.mountIdxHits += sign * float64(fp["mountidx.hit"])
	u.nfFastpath += sign * float64(fp["nfidx.fastpath"])
	for i, h := range lsmHooks {
		hs := tr.HookHistogram(h)
		u.hookCalls[i] += sign * float64(hs.Count)
		u.hookNs[i] += sign * hs.MeanNs * float64(hs.Count)
	}
}

// hookMeanNs is the mean cost of hook i, or ok false if it was not called.
func (u *usage) hookMeanNs(i int) (float64, bool) {
	if u.hookCalls[i] <= 0 {
		return 0, false
	}
	return u.hookNs[i] / u.hookCalls[i], true
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(cfg *config, res *runResult, pr *probes) (map[string]float64, error) {
	out := map[string]float64{}
	use, ops := res.usage, float64(res.usageOps)
	switch res.inst.(type) {
	case *diffFuzz:
		use, ops = pr.difffuzz, float64(pr.diffTraces)
	case *cveReplay:
		use, ops = pr.cve, float64(pr.cveEnvs)
	}
	p := &use[0]
	out["kernel.syscalls_per_op"] = p.sysExits / ops
	out["trace.events_per_op"] = p.events / ops
	out["vfs.dcache_hit_ratio"] = p.dcacheHits / (p.dcacheHits + p.dcacheMisses)
	out["vfs.dcache_invalidations_per_op"] = p.dcacheInvals / ops
	out["lsm.hooks_per_op"] = p.hookEvals / ops
	out["lsm.deny_share"] = p.denies / p.decisions
	out["core.mountidx_hits_per_op"] = p.mountIdxHits / ops
	out["netfilter.fastpath_per_op"] = p.nfFastpath / ops
	for img, prefix := range []string{"", "baseline."} {
		for i, h := range lsmHooks {
			ns, ok := use[img].hookMeanNs(i)
			if !ok {
				ns, _ = pr.hooks[img].hookMeanNs(i)
			}
			out[prefix+"lsm."+h+"_ns"] = ns
		}
	}

	var syncs time.Duration
	for _, s := range churnSyncSpans {
		syncs += res.tracer.total(s)
	}
	out["monitord.sync_share"] = float64(syncs) / float64(res.tracer.total("op"))
	out["difffuzz.check_share"] = 1 - float64(pr.diffReplay)/float64(pr.diffRun)
	out["difffuzz.steps_per_op"] = float64(pr.diffSteps) / float64(pr.diffTraces)
	out["go.gc_cpu_share"] = res.gcShare()
	out["bench.trace_overhead_pct"] = res.traceOverheadPct()

	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}
	for _, l := range cfg.PerLayer {
		if _, done := out[l.Name]; done {
			continue
		}
		cut := strings.LastIndexByte(l.Name, '_')
		div, timed := scale[l.Name[cut+1:]]
		if cut < 0 || !timed {
			return nil, fmt.Errorf("per-layer metric %s has no source", l.Name)
		}
		stem := l.Name[:cut]
		switch {
		case res.tracer.count(stem) > 0:
			out[l.Name] = res.tracer.medianNs(stem) / div
		case pr.tr.count(stem) > 0:
			out[l.Name] = pr.tr.medianNs(stem) / div
		case pr.batch[stem] > 0:
			out[l.Name] = pr.batch[stem] / div
		default:
			return nil, fmt.Errorf("per-layer metric %s: no span or probe %s", l.Name, stem)
		}
	}
	return out, nil
}
