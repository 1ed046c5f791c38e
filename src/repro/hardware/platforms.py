"""Analytic latency/energy models of the general-purpose platforms.

The paper profiles DeiT-family models on an Intel Xeon 6230 CPU, an NVIDIA
RTX 2080Ti GPU, an NVIDIA Tegra X2 edge GPU and a Pixel 3 phone (Fig. 1,
Table II), and uses the first three as hardware baselines for Figs. 11–12.
Real devices are unavailable here, so each platform is modelled analytically:

* dense GEMMs run at an *effective* MAC throughput that depends on the GEMM
  shape (large square attention products sustain higher efficiency than the
  tall-skinny ``d x d``-inner products of the Taylor attention — the reason
  Table II shows GPUs failing to benefit from the linear attention);
* softmax and element-wise work run at much lower effective rates (these are
  memory/special-function bound on GPUs);
* every step additionally pays a per-layer kernel-launch overhead, which is
  what makes the light pre/post-processing steps of Algorithm 1 significant
  on the edge GPU (Table II).

The default constants are calibrated against the paper's own TX2 profile
(Table II) and scaled across devices by their relative compute capability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fold import left_sum
from repro.workloads import AttentionLayerSpec, ModelWorkload


@dataclass(frozen=True)
class Platform:
    """An analytic platform model."""

    name: str
    #: Effective MAC/s for large, regular projection/MLP GEMMs.
    projection_macs_per_second: float
    #: Effective MAC/s for the batched per-head attention (n x n) GEMMs.
    gemm_macs_per_second: float
    #: Effective MAC/s for tall-skinny GEMMs with a small (head-dim) inner size.
    skinny_gemm_macs_per_second: float
    #: Effective scalar op/s for softmax (exp + normalisation).
    softmax_ops_per_second: float
    #: Effective scalar op/s for element-wise / reduction work.
    elementwise_ops_per_second: float
    #: Kernel-launch (or op-dispatch) overhead per step per layer, in seconds.
    launch_overhead_seconds: float
    #: Power attributable to the inference workload, in watts.  Calibrated to
    #: the paper's measured energy-efficiency ratios (Fig. 12) rather than the
    #: device TDP, since the authors report workload energy, not package power.
    average_power_watts: float
    #: Peak MAC/s (used to scale the ViTALiTy accelerator for fair comparison).
    peak_macs_per_second: float

    # -- design-point scaling ---------------------------------------------------------

    def scaled(self, compute: float = 1.0, power_watts: float | None = None,
               launch_overhead_seconds: float | None = None) -> "Platform":
        """This platform re-provisioned to a different design point.

        ``compute`` scales every effective-throughput rate and the peak
        together (a faster or binned part of the same architecture);
        ``power_watts`` / ``launch_overhead_seconds`` pin those quantities
        directly.  An identity scaling returns ``self`` unchanged.
        """

        if compute <= 0:
            raise ValueError(f"compute scale must be positive, got {compute}")
        if compute == 1.0 and power_watts is None and launch_overhead_seconds is None:
            return self
        return replace(
            self,
            projection_macs_per_second=self.projection_macs_per_second * compute,
            gemm_macs_per_second=self.gemm_macs_per_second * compute,
            skinny_gemm_macs_per_second=self.skinny_gemm_macs_per_second * compute,
            softmax_ops_per_second=self.softmax_ops_per_second * compute,
            elementwise_ops_per_second=self.elementwise_ops_per_second * compute,
            peak_macs_per_second=self.peak_macs_per_second * compute,
            average_power_watts=(self.average_power_watts if power_watts is None
                                 else power_watts),
            launch_overhead_seconds=(self.launch_overhead_seconds
                                     if launch_overhead_seconds is None
                                     else launch_overhead_seconds),
        )

    # -- per-step latencies -----------------------------------------------------------

    def _gemm_latency(self, macs: int, skinny: bool, layers: int,
                      projection: bool = False) -> float:
        if projection:
            rate = self.projection_macs_per_second
        elif skinny:
            rate = self.skinny_gemm_macs_per_second
        else:
            rate = self.gemm_macs_per_second
        return macs / rate + layers * self.launch_overhead_seconds

    def _vector_latency(self, ops: int, layers: int, softmax: bool = False) -> float:
        rate = self.softmax_ops_per_second if softmax else self.elementwise_ops_per_second
        return ops / rate + layers * self.launch_overhead_seconds

    def vanilla_attention_profile(self, workload: ModelWorkload) -> dict[str, float]:
        """Per-step latencies (seconds) of the vanilla softmax attention."""

        qk = sv = softmax = 0.0
        for spec in workload.attention_layers:
            n, m, d, dv, h, r = (spec.tokens, spec.kv_tokens, spec.qk_dim, spec.v_dim,
                                 spec.heads, spec.repeats)
            qk += self._gemm_latency(h * n * m * d * r, skinny=False, layers=r)
            sv += self._gemm_latency(h * n * m * dv * r, skinny=False, layers=r)
            softmax += self._vector_latency(3 * h * n * m * r, layers=r, softmax=True)
        return {"1:QK^T": qk, "2:softmax": softmax, "3:SV": sv}

    def taylor_attention_profile(self, workload: ModelWorkload) -> dict[str, float]:
        """Per-step latencies (seconds) of the Taylor attention (Algorithm 1)."""

        steps = {"1:k_hat": 0.0, "2:G": 0.0, "3:sums": 0.0, "4:tD": 0.0, "5:TN": 0.0, "6:Z": 0.0}
        for spec in workload.attention_layers:
            n, m, d, dv, h, r = (spec.tokens, spec.kv_tokens, spec.qk_dim, spec.v_dim,
                                 spec.heads, spec.repeats)
            steps["1:k_hat"] += self._vector_latency(2 * h * m * d * r, layers=r)
            steps["2:G"] += self._gemm_latency(h * m * d * dv * r, skinny=True, layers=r)
            steps["3:sums"] += self._vector_latency(h * m * (d + dv) * r, layers=r)
            steps["4:tD"] += (self._gemm_latency(h * n * d * r, skinny=True, layers=r)
                              + self._vector_latency(h * n * r, layers=0))
            steps["5:TN"] += (self._gemm_latency(h * n * d * dv * r, skinny=True, layers=r)
                              + self._vector_latency(h * n * dv * r, layers=0))
            steps["6:Z"] += self._vector_latency(h * n * dv * r, layers=r)
        return steps

    # -- aggregate latencies -------------------------------------------------------------

    def attention_latency(self, workload: ModelWorkload, taylor: bool = False) -> float:
        profile = (self.taylor_attention_profile(workload) if taylor
                   else self.vanilla_attention_profile(workload))
        return left_sum(profile.values())

    def linear_latency(self, workload: ModelWorkload) -> float:
        """Latency of the projection/MLP GEMMs (Step 1 of Fig. 1 plus the MLP module)."""

        total = 0.0
        for spec in workload.linear_layers:
            total += self._gemm_latency(spec.macs, skinny=False, layers=spec.repeats,
                                        projection=True)
        return total

    def end_to_end_latency(self, workload: ModelWorkload, taylor: bool = False) -> float:
        return self.attention_latency(workload, taylor=taylor) + self.linear_latency(workload)

    # -- energy ---------------------------------------------------------------------------

    def attention_energy(self, workload: ModelWorkload, taylor: bool = False) -> float:
        return self.attention_latency(workload, taylor=taylor) * self.average_power_watts

    def end_to_end_energy(self, workload: ModelWorkload, taylor: bool = False) -> float:
        return self.end_to_end_latency(workload, taylor=taylor) * self.average_power_watts

    def mha_runtime_breakdown(self, workload: ModelWorkload) -> dict[str, float]:
        """Fig. 1 breakdown: QKV projection vs softmax attention map vs attention score.

        Step 1 is the Q/K/V projection (a third of each layer's projection
        GEMMs plus the QKV part of the linear layers), Step 2 is ``QK^T`` plus
        the softmax, Step 3 is ``SV``.  Fractions are of the MHA module only.
        """

        qkv_macs = 0
        for spec in workload.attention_layers:
            embed = spec.qk_dim * spec.heads
            qkv_macs += spec.tokens * embed * (2 * spec.qk_dim + spec.v_dim) * spec.heads * spec.repeats
        layers = workload.total_attention_layers()
        step1 = self._gemm_latency(qkv_macs, skinny=False, layers=layers, projection=True)
        vanilla = self.vanilla_attention_profile(workload)
        step2 = vanilla["1:QK^T"] + vanilla["2:softmax"]
        step3 = vanilla["3:SV"]
        total = step1 + step2 + step3
        return {
            "step1_qkv": step1 / total,
            "step2_softmax_map": step2 / total,
            "step3_attention_score": step3 / total,
        }


# ---------------------------------------------------------------------------------------
# Default platform fleet, calibrated against Table II (TX2) and scaled by device class.
# ---------------------------------------------------------------------------------------

PLATFORMS: dict[str, Platform] = {
    # NVIDIA Tegra X2 — calibrated so the DeiT-Tiny vanilla/Taylor per-step
    # profile lands close to Table II (total ~11.7 ms vanilla / ~14 ms Taylor)
    # and the Fig. 1 MHA breakdown is ~21/55/24%.
    "edge_gpu": Platform(
        name="edge_gpu",
        projection_macs_per_second=85e9,
        gemm_macs_per_second=25e9,
        skinny_gemm_macs_per_second=9e9,
        softmax_ops_per_second=1.0e9,
        elementwise_ops_per_second=0.8e9,
        launch_overhead_seconds=55e-6,
        average_power_watts=3.5,
        peak_macs_per_second=0.65e12,
    ),
    # NVIDIA RTX 2080Ti — roughly 20-40x the TX2's effective throughput with
    # smaller relative launch overheads and a much higher power envelope.
    "gpu": Platform(
        name="gpu",
        projection_macs_per_second=3.0e12,
        gemm_macs_per_second=1.0e12,
        skinny_gemm_macs_per_second=250e9,
        softmax_ops_per_second=20e9,
        elementwise_ops_per_second=16e9,
        launch_overhead_seconds=6e-6,
        average_power_watts=55.0,
        peak_macs_per_second=6.7e12,
    ),
    # Intel Xeon Gold 6230 — strong scalar units but low effective GEMM
    # throughput at batch-1 inference, and no launch overhead to speak of.
    "cpu": Platform(
        name="cpu",
        projection_macs_per_second=45e9,
        gemm_macs_per_second=28e9,
        skinny_gemm_macs_per_second=14e9,
        softmax_ops_per_second=0.4e9,
        elementwise_ops_per_second=1.5e9,
        launch_overhead_seconds=2e-6,
        average_power_watts=3.5,
        peak_macs_per_second=1.0e12,
    ),
    # Google Pixel 3 — used only for the Fig. 1 runtime-breakdown profile.
    "pixel3": Platform(
        name="pixel3",
        projection_macs_per_second=18e9,
        gemm_macs_per_second=6e9,
        skinny_gemm_macs_per_second=2.5e9,
        softmax_ops_per_second=0.15e9,
        elementwise_ops_per_second=0.3e9,
        launch_overhead_seconds=80e-6,
        average_power_watts=2.0,
        peak_macs_per_second=0.25e12,
    ),
}


def get_platform(name: str) -> Platform:
    """Look up a platform model by name (``cpu``, ``gpu``, ``edge_gpu``, ``pixel3``)."""

    try:
        return PLATFORMS[name]
    except KeyError:
        raise KeyError(f"unknown platform {name!r}; available: {sorted(PLATFORMS)}") from None
