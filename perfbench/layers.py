"""Attribute a ``cProfile`` run to the program's layers.

Self time and call counts are grouped by ``repro`` module; cumulative
time is read at the channels' public entry points.  cProfile charges a
fixed cost to every Python call, so the absolute seconds are inflated
(3-4x on these workloads); compare them between runs of the same benchmark,
or as shares, never with untraced wall time.
"""

from __future__ import annotations

import pstats
import typing

SOC_MODULES = (
    "cache", "replacement", "machine", "address", "slice_hash", "llc",
    "gpu_l3", "ring", "dram",
)
SIM_MODULES = ("engine", "process", "events", "resources")

#: Metric name -> (source file under ``repro/``, function name).
ENTRY_POINTS = {
    "core.llc_channel.build_session": ("core/llc_channel/channel.py", "build_session"),
    "core.llc_channel.transmit": ("core/llc_channel/channel.py", "transmit"),
    "core.contention_channel.calibrate": ("core/contention_channel/channel.py", "calibrate"),
    "core.contention_channel.prepare": ("core/contention_channel/channel.py", "prepare"),
    "core.contention_channel.transmit": ("core/contention_channel/channel.py", "transmit"),
}


def _module_path(filename: str) -> typing.Optional[str]:
    """``.../src/repro/soc/cache.py`` -> ``soc/cache.py``; None outside repro."""
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    return None if at < 0 else path[at + len("/repro/"):]


def layer_of(filename: str) -> typing.Optional[str]:
    """The layer a source file belongs to, or None if it is not measured."""
    module = _module_path(filename)
    if module is None or not module.endswith(".py"):
        return None
    parts = module[:-3].split("/")
    if len(parts) == 2 and parts[0] == "soc" and parts[1] in SOC_MODULES:
        return f"soc.{parts[1]}"
    if len(parts) == 2 and parts[0] == "sim" and parts[1] in SIM_MODULES:
        return f"sim.{parts[1]}"
    if parts[0] in ("cpu", "gpu"):
        return parts[0]
    return None


def layer_metrics(stats: pstats.Stats) -> typing.Dict[str, float]:
    """Per-layer ``self_s``/``calls`` and entry-point cumulative seconds."""
    self_s: typing.Dict[str, float] = {}
    calls: typing.Dict[str, int] = {}
    cumulative = {name: 0.0 for name in ENTRY_POINTS}
    raw: typing.Dict[typing.Any, typing.Any] = stats.stats  # type: ignore[attr-defined]
    for (filename, _line, function), (_cc, nc, tt, ct, _callers) in raw.items():
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tt
            calls[layer] = calls.get(layer, 0) + nc
        module = _module_path(filename)
        for name, (source, entry) in ENTRY_POINTS.items():
            if module == source and function == entry:
                cumulative[name] += ct

    metrics: typing.Dict[str, float] = {}
    for module in SOC_MODULES:
        metrics[f"soc.{module}.self_s"] = self_s.get(f"soc.{module}", 0.0)
        metrics[f"soc.{module}.calls"] = calls.get(f"soc.{module}", 0)
    for module in SIM_MODULES:
        metrics[f"sim.{module}.self_s"] = self_s.get(f"sim.{module}", 0.0)
    metrics["sim.self_s"] = sum(metrics[f"sim.{m}.self_s"] for m in SIM_MODULES)
    metrics["cpu.self_s"] = self_s.get("cpu", 0.0)
    metrics["gpu.self_s"] = self_s.get("gpu", 0.0)
    # transmit() builds its own session / prepared machine; report the
    # transmission proper, without the set-up measured beside it.
    metrics["core.llc_channel.build_session_s"] = cumulative["core.llc_channel.build_session"]
    metrics["core.llc_channel.transmit_s"] = (
        cumulative["core.llc_channel.transmit"]
        - cumulative["core.llc_channel.build_session"]
    )
    metrics["core.contention_channel.calibrate_s"] = cumulative["core.contention_channel.calibrate"]
    metrics["core.contention_channel.prepare_s"] = cumulative["core.contention_channel.prepare"]
    metrics["core.contention_channel.transmit_s"] = (
        cumulative["core.contention_channel.transmit"]
        - cumulative["core.contention_channel.prepare"]
    )
    return metrics
