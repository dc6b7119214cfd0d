"""Declarative scenario specs: frozen, hashable, JSON-round-trippable.

The paper's evaluation is a grid of scenarios — policy x workload x
platform x seed.  A :class:`ScenarioSpec` captures one cell of that grid as
pure data: every component is referenced *by registry name* plus a plain
parameter mapping, so specs serialize losslessly to JSON
(``spec == ScenarioSpec.from_dict(spec.to_dict())``), hash stably across
processes (:attr:`ScenarioSpec.spec_hash`), and deduplicate structurally
(two specs that would build the same frequency table compare equal on the
relevant sub-specs).

Parameter mappings are canonicalized at construction into a sorted-key JSON
string, which is what makes the frozen dataclasses hashable and makes
equality independent of dict insertion order.  Access the decoded mapping
through ``.kwargs``.

One explicit ``seed`` lives on the scenario and is threaded through every
stochastic component (trace generation, the noisy sensor model, the random
assignment policy) via :func:`derive_seed`, so identical specs reproduce
bit-identical results with no reliance on global RNG state.

**The spec-hash stability contract.**  :attr:`ScenarioSpec.spec_hash` is
the first 12 hex digits of the SHA-256 of the canonical (sorted-key,
NaN-free) JSON encoding of :meth:`ScenarioSpec.hash_dict` — which is
:meth:`ScenarioSpec.to_dict` minus the few parameters that name *where*
data lives rather than *what* it is (today: the ``path`` of a
``trace-file`` workload, whose content is pinned by its ``sha256`` param
instead; see :data:`WORKLOAD_HASH_EXCLUDED_PARAMS`).  The hash therefore
depends only on the spec's *data* — never on process identity, dict
insertion order, platform, Python version, or file locations — which is
what lets it key persistent artifacts: Phase-1 table caches, outcome-store records, and the
deterministic shard assignment of :func:`shard_specs` all assume that the
same spec hashes to the same string on every host, today and in future
sessions.  Renaming or re-defaulting a spec *field* changes hashes and
therefore invalidates stores; that is intentional (a different spec is a
different scenario) but means such changes are breaking and must be called
out.  Defaults that are *omitted* from ``to_dict`` (``max_time``,
``name``, sub-spec ``seed``) can gain new behavior without disturbing
existing hashes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, Mapping, cast

from repro.errors import ScenarioError, did_you_mean
from repro.thermal.constants import PAPER_DFS_PERIOD
from repro.units import mhz

#: Default Phase-1 grid: start temperatures in Celsius.  Denser near t_max
#: where the feasible frequency changes fastest.
DEFAULT_T_GRID = (50.0, 60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 92.5, 95.0, 97.5, 100.0)

#: Default Phase-1 grid: average-frequency targets in Hz (50 MHz steps).
DEFAULT_F_GRID = tuple(mhz(f) for f in range(50, 1001, 50))

#: Default optimizer step subsampling shared by experiments and benchmarks.
DEFAULT_STEP_SUBSAMPLE = 5

#: Workload params excluded from the spec hash, per workload name.  These
#: are *location* parameters: the data they point at is pinned by a
#: separate content parameter that stays in the hash (``trace-file``
#: excludes ``path`` because ``sha256`` covers the file's bytes).  This
#: table is static — defined here, not at registration time — so a spec's
#: hash never depends on which plugins happen to be imported.
WORKLOAD_HASH_EXCLUDED_PARAMS: dict[str, tuple[str, ...]] = {
    "trace-file": ("path",),
}


def derive_seed(master: int, stream: str) -> int:
    """A stable per-stream seed derived from the scenario's master seed.

    Distinct streams ("trace", "sensor", "assignment") must not share an
    RNG sequence; hashing ``master:stream`` gives independent, platform-
    stable 32-bit seeds without any global state.

    Args:
        master: the scenario's master seed.
        stream: a short stream label.

    Returns:
        A deterministic 32-bit seed for the (master, stream) pair.

    Example:

        >>> derive_seed(7, "sensor") == derive_seed(7, "sensor")
        True
        >>> derive_seed(7, "sensor") != derive_seed(7, "trace")
        True
    """
    digest = hashlib.blake2b(
        f"{int(master)}:{stream}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


def canonical_params(params: Mapping[str, Any] | str | None) -> str:
    """Normalize a parameter mapping to a canonical JSON object string.

    Accepts a mapping, an already-canonical JSON string, or None (empty).
    Keys are sorted and values must be JSON-representable; NaN/Infinity are
    rejected (they do not round-trip through standard JSON).
    """
    if params is None:
        mapping: Mapping[str, Any] = {}
    elif isinstance(params, str):
        try:
            mapping = json.loads(params)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"malformed params JSON: {exc}") from exc
        if not isinstance(mapping, dict):
            raise ScenarioError("params JSON must encode an object")
    elif isinstance(params, Mapping):
        mapping = params
    else:
        raise ScenarioError(
            f"params must be a mapping or JSON string, got {type(params).__name__}"
        )
    try:
        return json.dumps(
            dict(mapping), sort_keys=True, allow_nan=False, separators=(",", ":")
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"params are not JSON-representable: {exc}") from exc


def _spec_hash(payload: dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _check_keys(
    data: Mapping[str, Any], allowed: tuple[str, ...], what: str
) -> None:
    """Reject unknown keys in a spec dict — a typo'd field name must fail
    loudly, not silently fall back to the default."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"unknown {what} fields {unknown}; valid fields: {list(allowed)}"
        )


@dataclass(frozen=True)
class PlatformSpec:
    """A platform referenced by registry name plus builder parameters.

    Attributes:
        name: key into the platform registry (e.g. ``"niagara8"``).
        params: canonical JSON string of builder keyword arguments (pass a
            plain dict; it is canonicalized in ``__post_init__``).
    """

    name: str = "niagara8"
    params: str = "{}"

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", canonical_params(self.params))

    @property
    def kwargs(self) -> dict[str, Any]:
        """Decoded builder keyword arguments."""
        return cast(dict[str, Any], json.loads(self.params))

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation."""
        return {"name": self.name, "params": self.kwargs}

    @classmethod
    def from_dict(cls, data: dict[str, Any] | str) -> "PlatformSpec":
        """Inverse of :meth:`to_dict`; also accepts a bare name string."""
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, ("name", "params"), "platform spec")
        return cls(name=data["name"], params=canonical_params(data.get("params")))

    @property
    def spec_hash(self) -> str:
        """Stable 12-hex-digit hash of the spec (provenance key)."""
        return _spec_hash(self.to_dict())


@dataclass(frozen=True)
class WorkloadSpec:
    """A trace generator referenced by registry name.

    Attributes:
        name: key into the workload registry (e.g. ``"mixed"``).
        duration: trace length in simulated seconds.
        params: canonical JSON string of generator keyword arguments.
        seed: explicit trace seed; None inherits the scenario seed.
    """

    name: str = "mixed"
    duration: float = 40.0
    params: str = "{}"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ScenarioError("workload duration must be positive")
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(self, "params", canonical_params(self.params))

    @property
    def kwargs(self) -> dict[str, Any]:
        """Decoded generator keyword arguments."""
        return cast(dict[str, Any], json.loads(self.params))

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation."""
        data: dict[str, Any] = {
            "name": self.name,
            "duration": self.duration,
            "params": self.kwargs,
        }
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    def hash_dict(self) -> dict[str, Any]:
        """:meth:`to_dict` minus hash-excluded (location) parameters.

        For every built-in generator this equals :meth:`to_dict`;
        ``trace-file`` drops ``path`` so the spec hash follows the file's
        *content* (its ``sha256`` param), not its location.
        """
        data = self.to_dict()
        excluded = WORKLOAD_HASH_EXCLUDED_PARAMS.get(self.name)
        if excluded:
            data["params"] = {
                k: v for k, v in data["params"].items() if k not in excluded
            }
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any] | str) -> "WorkloadSpec":
        """Inverse of :meth:`to_dict`; also accepts a bare name string."""
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, ("name", "duration", "params", "seed"), "workload spec")
        return cls(
            name=data["name"],
            duration=data.get("duration", 40.0),
            params=canonical_params(data.get("params")),
            seed=data.get("seed"),
        )


@dataclass(frozen=True)
class PolicySpec:
    """A DFS policy referenced by registry name.

    For table-driven policies (``"protemp"``) the params may carry the
    Phase-1 table configuration consumed by the runner, not the policy
    factory: ``mode``, ``t_grid``, ``f_grid``, ``step_subsample``,
    ``strategy`` (the sweep, ``"gen2"`` or ``"cold"``) and ``backend``
    (``"barrier"`` or ``"scipy"``).  Everything else is forwarded to the
    policy factory.

    ``strategy`` and ``backend`` are validated at construction — an
    unknown name fails at spec-parse time (and therefore at service
    submit time) with a did-you-mean hint, not deep inside a sweep.

    Attributes:
        name: key into the policy registry (e.g. ``"basic-dfs"``).
        params: canonical JSON string of policy/table parameters.
    """

    name: str = "protemp"
    params: str = "{}"

    #: Param keys consumed by the runner's table builder, not the factory.
    TABLE_PARAM_KEYS = (
        "mode",
        "t_grid",
        "f_grid",
        "step_subsample",
        "strategy",
        "backend",
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", canonical_params(self.params))
        params = self.kwargs
        strategy = params.get("strategy")
        backend = params.get("backend")
        if strategy is not None or backend is not None:
            # Lazy: repro.core is heavy and never needed for pure spec
            # plumbing (hashing, sharding, JSON round-trips).
            from repro.core.protemp import BACKENDS
            from repro.core.table import SWEEPS

            if strategy is not None and strategy not in SWEEPS:
                raise ScenarioError(
                    f"unknown sweep strategy {strategy!r}; "
                    f"choose from {list(SWEEPS)}"
                    + did_you_mean(str(strategy), SWEEPS)
                )
            if backend is not None and backend not in BACKENDS:
                raise ScenarioError(
                    f"unknown solver backend {backend!r}; "
                    f"choose from {list(BACKENDS)}"
                    + did_you_mean(str(backend), BACKENDS)
                )

    @property
    def kwargs(self) -> dict[str, Any]:
        """Decoded parameters (table keys included)."""
        return cast(dict[str, Any], json.loads(self.params))

    def factory_kwargs(self) -> dict[str, Any]:
        """Parameters forwarded to the policy factory (table keys removed)."""
        return {
            k: v
            for k, v in self.kwargs.items()
            if k not in self.TABLE_PARAM_KEYS
        }

    def table_config(self) -> dict[str, Any]:
        """Phase-1 table configuration with defaults filled in."""
        params = self.kwargs
        return {
            "mode": params.get("mode", "variable"),
            "t_grid": tuple(params.get("t_grid", DEFAULT_T_GRID)),
            "f_grid": tuple(params.get("f_grid", DEFAULT_F_GRID)),
            "step_subsample": int(
                params.get("step_subsample", DEFAULT_STEP_SUBSAMPLE)
            ),
            "strategy": params.get("strategy"),
            "backend": params.get("backend", "barrier"),
        }

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation."""
        return {"name": self.name, "params": self.kwargs}

    @classmethod
    def from_dict(cls, data: dict[str, Any] | str) -> "PolicySpec":
        """Inverse of :meth:`to_dict`; also accepts a bare name string."""
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, ("name", "params"), "policy spec")
        return cls(name=data["name"], params=canonical_params(data.get("params")))


@dataclass(frozen=True)
class SensorSpec:
    """A thermal sensor model (``"ideal"`` or ``"noisy"``).

    Attributes:
        name: key into the sensor registry.
        params: canonical JSON string of sensor keyword arguments.
        seed: explicit sensor-noise seed; None derives one from the
            scenario seed (stream ``"sensor"``).
    """

    name: str = "ideal"
    params: str = "{}"
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", canonical_params(self.params))

    @property
    def kwargs(self) -> dict[str, Any]:
        """Decoded sensor keyword arguments."""
        return cast(dict[str, Any], json.loads(self.params))

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation."""
        data: dict[str, Any] = {"name": self.name, "params": self.kwargs}
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any] | str) -> "SensorSpec":
        """Inverse of :meth:`to_dict`; also accepts a bare name string."""
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, ("name", "params", "seed"), "sensor spec")
        return cls(
            name=data["name"],
            params=canonical_params(data.get("params")),
            seed=data.get("seed"),
        )


def _coerce(kind: type[Any], value: Any) -> Any:
    """Coerce a str/dict into the given spec type; pass specs through."""
    if isinstance(value, kind):
        return value
    if isinstance(value, (str, dict)):
        return kind.from_dict(value)  # type: ignore[attr-defined]
    raise ScenarioError(
        f"cannot build a {kind.__name__} from {type(value).__name__}"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified closed-loop experiment: the package's unit of work.

    platform x workload x policy x simulation knobs x seed.  Frozen and
    hashable; JSON round-trips losslessly through
    :meth:`to_dict`/:meth:`from_dict`.

    Example:

        >>> spec = ScenarioSpec(policy="basic-dfs", seed=3)
        >>> ScenarioSpec.from_dict(spec.to_dict()) == spec
        True
        >>> len(spec.spec_hash)  # stable content hash, keys caches/stores
        12

    Attributes:
        platform: platform sub-spec (str/dict coerced).
        workload: workload sub-spec (str/dict coerced).
        policy: policy sub-spec (str/dict coerced).
        sensor: sensor sub-spec (ideal by default).
        assignment: task-assignment registry name.
        window: DFS period (s); the paper uses 100 ms.
        t_initial: initial uniform temperature (Celsius).
        max_time: simulation horizon (s); None uses the workload duration.
        seed: master seed threaded through every stochastic component.
        name: optional human-readable label.
    """

    platform: PlatformSpec = field(default_factory=PlatformSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    sensor: SensorSpec = field(default_factory=SensorSpec)
    assignment: str = "first-idle"
    window: float = PAPER_DFS_PERIOD
    t_initial: float = 45.0
    max_time: float | None = None
    seed: int = 0
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "platform", _coerce(PlatformSpec, self.platform))
        object.__setattr__(self, "workload", _coerce(WorkloadSpec, self.workload))
        object.__setattr__(self, "policy", _coerce(PolicySpec, self.policy))
        object.__setattr__(self, "sensor", _coerce(SensorSpec, self.sensor))
        if self.window <= 0:
            raise ScenarioError("window must be positive")
        if self.max_time is not None and self.max_time <= 0:
            raise ScenarioError("max_time must be positive when given")
        object.__setattr__(self, "window", float(self.window))
        object.__setattr__(self, "t_initial", float(self.t_initial))
        object.__setattr__(self, "seed", int(self.seed))

    # -- derived views -----------------------------------------------------

    @property
    def horizon(self) -> float:
        """Effective simulation horizon (s)."""
        return self.max_time if self.max_time is not None else self.workload.duration

    @property
    def trace_seed(self) -> int:
        """Seed for trace generation (explicit workload seed wins)."""
        return self.workload.seed if self.workload.seed is not None else self.seed

    @property
    def sensor_seed(self) -> int:
        """Seed for the sensor noise stream."""
        return (
            self.sensor.seed
            if self.sensor.seed is not None
            else derive_seed(self.seed, "sensor")
        )

    @property
    def assignment_seed(self) -> int:
        """Seed for stochastic assignment policies."""
        return derive_seed(self.seed, "assignment")

    @property
    def label(self) -> str:
        """Display label: explicit name or a compact derived one."""
        if self.name:
            return self.name
        return (
            f"{self.policy.name}/{self.workload.name}"
            f"@{self.platform.name}#s{self.seed}"
        )

    @property
    def spec_hash(self) -> str:
        """Stable 12-hex-digit hash of the full spec (provenance key).

        Computed over :meth:`hash_dict`, so two specs that differ only in
        hash-excluded location parameters (a ``trace-file`` workload's
        ``path``) share a hash — and an outcome-store record computed from
        one location replays for the other.
        """
        return _spec_hash(self.hash_dict())

    # -- serialization -----------------------------------------------------

    def hash_dict(self) -> dict[str, Any]:
        """The canonical payload :attr:`spec_hash` is computed over.

        :meth:`to_dict` with the workload sub-dict replaced by
        :meth:`WorkloadSpec.hash_dict`.  Two specs are *hash-equivalent*
        (same scenario for store/cache purposes) exactly when their
        ``hash_dict`` payloads are equal.
        """
        data = self.to_dict()
        data["workload"] = self.workload.hash_dict()
        return data

    def to_dict(self) -> dict[str, Any]:
        """Plain-data (JSON-compatible) representation."""
        data: dict[str, Any] = {
            "platform": self.platform.to_dict(),
            "workload": self.workload.to_dict(),
            "policy": self.policy.to_dict(),
            "sensor": self.sensor.to_dict(),
            "assignment": self.assignment,
            "window": self.window,
            "t_initial": self.t_initial,
            "seed": self.seed,
        }
        if self.max_time is not None:
            data["max_time"] = self.max_time
        if self.name is not None:
            data["name"] = self.name
        return data

    #: Keys accepted by :meth:`from_dict` (the :meth:`to_dict` shape).
    _DICT_KEYS = (
        "platform",
        "workload",
        "policy",
        "sensor",
        "assignment",
        "window",
        "t_initial",
        "max_time",
        "seed",
        "name",
    )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        _check_keys(data, cls._DICT_KEYS, "scenario")
        try:
            return cls(
                platform=PlatformSpec.from_dict(data.get("platform", "niagara8")),
                workload=WorkloadSpec.from_dict(data.get("workload", "mixed")),
                policy=PolicySpec.from_dict(data.get("policy", "protemp")),
                sensor=SensorSpec.from_dict(data.get("sensor", "ideal")),
                assignment=data.get("assignment", "first-idle"),
                window=data.get("window", PAPER_DFS_PERIOD),
                t_initial=data.get("t_initial", 45.0),
                max_time=data.get("max_time"),
                seed=data.get("seed", 0),
                name=data.get("name"),
            )
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario data: {exc}") from exc

    def to_json(self) -> str:
        """JSON string encoding of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- grids -------------------------------------------------------------

    def with_(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (coercions applied)."""
        return replace(self, **overrides)

    @classmethod
    def grid(
        cls,
        base: "ScenarioSpec | None" = None,
        *,
        shard_index: int | None = None,
        shard_count: int | None = None,
        **axes: Any,
    ) -> list["ScenarioSpec"]:
        """Expand a scenario grid: the cartesian product over the axes.

        Each keyword names a :class:`ScenarioSpec` field; its value is
        either a single value or an iterable of values (strings and dicts
        coerced into sub-specs as usual).  Axes expand in field-declaration
        order, last axis fastest::

            ScenarioSpec.grid(
                policy=["basic-dfs", "protemp"],
                workload=[WorkloadSpec("mixed", 40.0), WorkloadSpec("compute", 40.0)],
                seed=range(8),
            )

        Args:
            base: spec providing the non-axis fields (default: defaults).
            shard_index: with `shard_count`, keep only this shard's cells
                (deterministic spec-hash slicing; see :func:`shard_specs`).
            shard_count: total number of shards.
            **axes: field name -> value or iterable of values.

        Returns:
            The expanded list of specs (len = product of axis lengths,
            then sliced when sharding is requested).

        Raises:
            ScenarioError: on unknown axis names, empty axes, or an
                invalid shard request.
        """
        base = base if base is not None else cls()
        field_names = [f.name for f in fields(cls)]
        unknown = sorted(set(axes) - set(field_names))
        if unknown:
            raise ScenarioError(
                f"unknown grid axes {unknown}; valid fields: {field_names}"
            )
        keys = [name for name in field_names if name in axes]
        value_lists = [_axis_values(axes[k]) for k in keys]
        for key, values in zip(keys, value_lists):
            if not values:
                raise ScenarioError(f"grid axis {key!r} is empty")
        specs = [
            replace(base, **dict(zip(keys, combo)))
            for combo in itertools.product(*value_lists)
        ]
        if shard_index is not None or shard_count is not None:
            specs = shard_specs(specs, shard_index, shard_count)
        return specs


def _axis_values(value: Any) -> list[Any]:
    """Interpret a grid-axis value: scalars wrap, iterables expand."""
    if isinstance(value, (str, bytes, dict, Mapping)) or not isinstance(
        value, Iterable
    ):
        return [value]
    return list(value)


def shard_of(spec: "ScenarioSpec", shard_count: int) -> int:
    """The shard (0-based) a spec belongs to among `shard_count` shards.

    Assignment hashes the spec (``int(spec_hash, 16) % shard_count``), so
    it is a pure function of the spec's data: every host slicing the same
    grid with the same `shard_count` computes the same partition, in any
    process, with no coordination — which is what makes cross-host sharding
    just "run the same config with a different ``--shard i/n``".

    Example:

        >>> spec = ScenarioSpec(seed=3)
        >>> shard_of(spec, 4) == shard_of(spec, 4)  # process-stable
        True
    """
    if shard_count < 1:
        raise ScenarioError(f"shard_count must be >= 1, got {shard_count}")
    return int(spec.spec_hash, 16) % shard_count


def shard_specs(
    specs: Iterable["ScenarioSpec"],
    shard_index: int | None,
    shard_count: int | None,
) -> list["ScenarioSpec"]:
    """Keep only the specs belonging to one shard of a grid.

    The shards partition the grid: every spec lands in exactly one shard,
    and the union over ``shard_index in range(shard_count)`` is the whole
    grid.  Relative order within a shard follows the input order.

    Args:
        specs: the full (unsharded) grid.
        shard_index: 0-based shard to keep.
        shard_count: total number of shards; both must be given together.

    Returns:
        The shard's specs (possibly empty — small grids may leave some
        shards without cells).

    Raises:
        ScenarioError: when only one of the two arguments is given or the
            indices are out of range.
    """
    if shard_index is None or shard_count is None:
        raise ScenarioError(
            "shard_index and shard_count must be given together"
        )
    if shard_count < 1:
        raise ScenarioError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ScenarioError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    return [
        spec for spec in specs if shard_of(spec, shard_count) == shard_index
    ]


def scenario_grid_from_config(
    config: dict[str, Any],
    *,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> list["ScenarioSpec"]:
    """Expand a JSON config into a scenario grid.

    The config format used by ``protemp run``::

        {
          "base": { ...ScenarioSpec.to_dict()... },
          "grid": { "policy": ["basic-dfs", "protemp"], "seed": [0, 1] }
        }

    ``base`` holds the shared fields (a full or partial scenario dict);
    ``grid`` maps field names to value lists.  A config that is already a
    single scenario dict (no "base"/"grid" keys) yields one spec.

    Args:
        config: the decoded JSON config.
        shard_index: with `shard_count`, keep only one shard of the
            expanded grid (``protemp run --shard i/n``); the slicing is
            deterministic across hosts (see :func:`shard_specs`).
        shard_count: total number of shards.

    Returns:
        The expanded (and possibly shard-sliced) list of
        :class:`ScenarioSpec`.
    """
    if not isinstance(config, dict):
        raise ScenarioError("scenario config must be a JSON object")
    if "base" not in config and "grid" not in config:
        specs = [ScenarioSpec.from_dict(config)]
        if shard_index is not None or shard_count is not None:
            specs = shard_specs(specs, shard_index, shard_count)
        return specs
    extra = {k: v for k, v in config.items() if k not in ("base", "grid")}
    if "base" in config and extra:
        raise ScenarioError(
            f"config mixes 'base' with top-level scenario fields "
            f"{sorted(extra)}; put them inside 'base'"
        )
    # A config with "grid" but no "base" wrapper: the remaining top-level
    # keys ARE the base scenario (they must not be silently dropped).
    base = ScenarioSpec.from_dict(config["base"] if "base" in config else extra)
    grid = config.get("grid", {})
    if not isinstance(grid, dict):
        raise ScenarioError('"grid" must map field names to value lists')
    axes = {key: _axis_values(value) for key, value in grid.items()}
    specs = ScenarioSpec.grid(base, **axes)
    if shard_index is not None or shard_count is not None:
        specs = shard_specs(specs, shard_index, shard_count)
    return specs
