"""Text syntax for workload / algorithm specs, shared by CLI and server.

One mini-language names every buildable spec in the project::

    ofdm | jpeg | ofdm-measured | jpeg-measured | filterbank | viterbi
        | minic:<seed> | synthetic:<blocks>      (+ ``:key=value,...``)
    greedy | exhaustive[:max_candidates=N] | annealing[:seed=N]

The ``python -m repro`` argument parsers and the serving layer's JSON
job decoder both accept these strings, so a request a user typed on the
command line is exactly a request a client can POST to the daemon.
Every function raises :class:`ValueError` on malformed input; callers
wrap that into their own error surface (``argparse.ArgumentTypeError``
on the CLI, a structured validation error on the server).  The two spec
parsers keep their last 256 answers: the specs are frozen, so a served
job on a hot pair parses its text once.  Errors are not kept; bad text
raises on every call.
"""

from __future__ import annotations

from functools import lru_cache

from .explore.space import WorkloadSpec
from .search.base import AlgorithmSpec

__all__ = [
    "algorithm_spec_from_text",
    "params_from_text",
    "workload_spec_from_text",
]


def params_from_text(text: str) -> dict[str, object]:
    """``"seed=3,comm_intensity=0.8"`` -> ``{'seed': 3, 'comm_intensity': 0.8}``.

    Values coerce ``true``/``false`` to bool, then int, then float, then
    stay strings.
    """
    params: dict[str, object] = {}
    for item in filter(None, text.split(",")):
        if "=" not in item:
            raise ValueError(
                f"malformed parameter {item!r}; expected key=value"
            )
        key, raw = item.split("=", 1)
        value: object
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key.strip()] = value
    return params


@lru_cache(maxsize=256)
def workload_spec_from_text(text: str) -> WorkloadSpec:
    """Parse and validate a workload spec string.

    Parameter names are validated eagerly (by resolving the label), so a
    typo'd key fails here rather than deep inside a worker process.
    """
    spec = _workload_spec(text)
    try:
        _ = spec.label
    except TypeError as error:
        raise ValueError(
            f"bad parameters for workload {text!r}: {error}"
        ) from None
    return spec


def _workload_spec(text: str) -> WorkloadSpec:
    kind, __, rest = text.partition(":")
    if kind == "ofdm":
        return WorkloadSpec.ofdm()
    if kind == "jpeg":
        return WorkloadSpec.jpeg()
    if kind == "ofdm-measured":
        return WorkloadSpec.ofdm_measured(**params_from_text(rest))  # type: ignore[arg-type]
    if kind == "jpeg-measured":
        return WorkloadSpec.jpeg_measured(**params_from_text(rest))  # type: ignore[arg-type]
    if kind == "filterbank":
        return WorkloadSpec.filterbank(**params_from_text(rest))
    if kind == "viterbi":
        return WorkloadSpec.viterbi(**params_from_text(rest))
    if kind == "minic":
        seed_text, __, params = rest.partition(":")
        if not seed_text:
            return WorkloadSpec.minic()
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(
                f"minic seed must be an integer, got {seed_text!r}"
            ) from None
        return WorkloadSpec.minic(seed, **params_from_text(params))  # type: ignore[arg-type]
    if kind == "synthetic":
        blocks, __, params = rest.partition(":")
        if not blocks:
            raise ValueError(
                "synthetic workloads need a block count: synthetic:<blocks>"
            )
        try:
            block_count = int(blocks)
        except ValueError:
            raise ValueError(
                f"synthetic block count must be an integer, got {blocks!r}"
            ) from None
        return WorkloadSpec.synthetic(block_count, **params_from_text(params))
    raise ValueError(
        f"unknown workload {text!r}; expected ofdm, jpeg, ofdm-measured, "
        "jpeg-measured, filterbank, viterbi, minic:<seed> or "
        "synthetic:<blocks>[:key=value,...]"
    )


@lru_cache(maxsize=256)
def algorithm_spec_from_text(text: str) -> AlgorithmSpec:
    """Parse and validate an algorithm spec string."""
    name, __, rest = text.partition(":")
    factories = {
        "greedy": AlgorithmSpec.greedy,
        "exhaustive": AlgorithmSpec.exhaustive,
        "annealing": AlgorithmSpec.annealing,
    }
    factory = factories.get(name)
    if factory is None:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of {sorted(factories)}"
        )
    try:
        return factory(**params_from_text(rest))  # type: ignore[arg-type]
    except TypeError as error:
        raise ValueError(str(error)) from None
