"""Probe spectra below, at, and above the shifted resonance, with asymmetry.

Produces three sideband traces for one drive amplitude and prints the
asymmetry metric of each: large off resonance, near zero on it.  With
--plot a three-panel figure goes next to the CSV (needs matplotlib,
installable via the `figures` extra).
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

from bloch_siegert_lab.chrw import ModelParams, build_frame
from bloch_siegert_lab.errors import BslError
from bloch_siegert_lab.resonance import bs_chrw
from bloch_siegert_lab.spectrum import asymmetry_metric, default_probe_grid, spectrum


def trace_at(amp: float, pump: float, kappa: float, n: int):
    """Trace on the probe window `bsl spectrum` uses by default, and its
    asymmetry metric, or None and the reason where it cannot be computed."""
    params = ModelParams(omega0=1.0, amplitude=amp, omega=pump, kappa=kappa)
    frame = build_frame(params)
    tr = spectrum(params, default_probe_grid(pump, frame.rabi_tilde, n), mode=frame.mode)
    try:
        return tr, asymmetry_metric(tr, pump), ""
    except BslError as exc:
        return tr, None, str(exc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--amplitude", type=float, default=0.1)
    ap.add_argument("--kappa", type=float, default=2e-3)
    ap.add_argument("--detune", type=float, default=None,
                    help="pump offset for the side panels (default: the shift itself)")
    ap.add_argument("--points", type=int, default=1201)
    ap.add_argument("--out", type=Path, default=Path("data/spectrum_panel.csv"))
    ap.add_argument("--plot", action="store_true")
    args = ap.parse_args(argv)

    res = bs_chrw(1.0, args.amplitude)
    offset = args.detune if args.detune is not None else res.shift
    settings = [
        ("below", res.omega_res - offset),
        ("at_resonance", res.omega_res),
        ("above", res.omega_res + offset),
    ]

    args.out.parent.mkdir(parents=True, exist_ok=True)
    panels = []
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "pump", "nu", "S"])
        for label, pump in settings:
            tr, metric, why = trace_at(args.amplitude, pump, args.kappa, args.points)
            panels.append((label, pump, tr, metric))
            for nu, val in zip(tr.nu_grid, tr.values):
                writer.writerow([label, f"{pump:.9g}", f"{nu:.9g}", f"{val:.9g}"])
            summary = f"{metric:.3e}" if metric is not None else f"unavailable: {why}"
            print(f"{label:>13}: pump {pump:.7f}, asymmetry {summary}")
    print(f"wrote traces to {args.out}")

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not available; skipping the figure")
            return 0
        fig, axes = plt.subplots(1, 3, figsize=(11, 3.2), sharey=True)
        for ax, (label, pump, tr, metric) in zip(axes, panels):
            ax.plot(tr.nu_grid - pump, tr.values)
            ax.axvline(0.0, color="0.7", lw=0.8)
            note = f"{metric:.2e}" if metric is not None else "unavailable"
            ax.set_title(f"{label} ({note})", fontsize=10)
            ax.set_xlabel("nu - pump")
        axes[0].set_ylabel("S (peak-normalized)")
        fig.tight_layout()
        png = args.out.with_suffix(".png")
        fig.savefig(png, dpi=150)
        print(f"wrote figure to {png}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
