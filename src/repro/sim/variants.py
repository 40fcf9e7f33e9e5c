"""Experiment variant registry.

A *variant* names one column of the paper's result matrices: a baseline
predictor, optionally a Branch Runahead configuration, optionally extra
``simulate()`` kwargs.  Three kinds of token resolve here:

* **predictor-only variants** — every entry of
  :data:`~repro.predictors.registry.PREDICTORS` is addressable by its own
  name (``"tage64"``); such cells attach nothing beyond the predictor, so
  their MPKI is a pure function of the committed branch stream and
  ``outputs="mpki"`` cells may take the replay fast path;
* **named BR variants** — registered with :func:`register_variant`
  (``"mini"``, ``"mtage+big"``, …), each a factory returning
  ``simulate()`` kwargs;
* **``spec:`` tokens** — :func:`spec_variant` composes any registered
  predictor × BR-config pair into a plain string
  (``"spec:tage80+mini"``), so ad-hoc combinations cache and pickle
  exactly like named variants.

Because predictor-only variants fall through to the predictor registry, a
single ``@register_predictor`` definition is enough to make a new
predictor runnable through ``run``/``run_matrix``, the CLI, and ``repro
list`` — no second registration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.config import UARCH_CONFIGS
from repro.predictors.registry import PREDICTORS
from repro.registry import Registry, UnknownComponentError

#: name -> zero-argument factory returning ``simulate()`` kwargs.
BR_VARIANTS = Registry("variant")


def register_variant(name: str, **meta: Any) -> Callable[..., Any]:
    """Decorator registering a named variant (a simulate-kwargs factory)."""
    if name in PREDICTORS:
        raise ValueError(
            f"variant name {name!r} collides with a registered predictor "
            f"(predictor names are implicitly predictor-only variants)")
    return BR_VARIANTS.register(name, **meta)


# -- built-in named variants (the paper's figure columns) ------------------

def _kwargs(predictor: str = "tage64", config: str = None,
            **extra: Any) -> dict:
    kwargs: dict = dict(predictor=predictor)
    if config is not None:
        kwargs["br_config"] = UARCH_CONFIGS.get(config)()
    kwargs.update(extra)
    return kwargs


@register_variant("core_only")
def _core_only() -> dict:
    return _kwargs(config="core-only")


@register_variant("mini")
def _mini() -> dict:
    return _kwargs(config="mini")


@register_variant("big")
def _big() -> dict:
    return _kwargs(config="big")


@register_variant("mtage+big")
def _mtage_big() -> dict:
    return _kwargs(predictor="mtage", config="big")


@register_variant("mini-nonspec")
def _mini_nonspec() -> dict:
    from repro.core import config as br_config
    return _kwargs(
        config=None,
        br_config=br_config.mini(
            initiation_mode=br_config.NON_SPECULATIVE))


@register_variant("mini-indep")
def _mini_indep() -> dict:
    from repro.core import config as br_config
    return _kwargs(
        config=None,
        br_config=br_config.mini(
            initiation_mode=br_config.INDEPENDENT_EARLY))


@register_variant("mini-oracle-merge")
def _mini_oracle_merge() -> dict:
    return _kwargs(config="mini", track_merge_oracle=True)


# -- token resolution ------------------------------------------------------

def variant_names() -> List[str]:
    """Every addressable named variant, predictor-only names first.

    Ordering is registration order within each group — the default
    ``run_matrix`` column order the bench report and figures rely on.
    """
    return PREDICTORS.names() + BR_VARIANTS.names()


def variants_view() -> Dict[str, Callable[[], dict]]:
    """``{name: kwargs-factory}`` over both groups (a live snapshot)."""
    view: Dict[str, Callable[[], dict]] = {}
    for name, factory in PREDICTORS.items():
        view[name] = (lambda f=factory: dict(predictor=f()))
    for name, factory in BR_VARIANTS.items():
        view[name] = factory
    return view


def spec_variant(predictor: str, config: str = None) -> str:
    """Build a ``spec:`` variant token for any predictor × config pair.

    Tokens are plain strings, so they cache and pickle exactly like named
    variants: ``spec_variant("tage80", "mini") == "spec:tage80+mini"``.
    """
    PREDICTORS.entry(predictor)  # raises with suggestions if unknown
    if config is not None:
        UARCH_CONFIGS.entry(config)
    return f"spec:{predictor}+{config or 'none'}"


def variant_kwargs(variant: str) -> dict:
    """Materialize ``simulate()`` kwargs for any variant token.

    The predictor is returned as its registry name, which ``simulate()``
    and the MPKI replay paths resolve themselves; a name (not an instance)
    is what lets ``simulate()`` share one recorded prediction column
    across the variants of a region.
    """
    if variant.startswith("spec:"):
        predictor, _, config = variant[5:].partition("+")
        PREDICTORS.entry(predictor)  # raises with suggestions if unknown
        kwargs = dict(predictor=predictor)
        if config and config != "none":
            kwargs["br_config"] = UARCH_CONFIGS.get(config)()
        return kwargs
    if variant in BR_VARIANTS:
        return BR_VARIANTS.get(variant)()
    if variant in PREDICTORS:
        return dict(predictor=variant)
    raise UnknownComponentError("variant", variant, variant_names())


def is_predictor_only(variant: str) -> bool:
    """True when the variant attaches nothing beyond a baseline predictor."""
    if variant.startswith("spec:"):
        return variant.endswith("+none")
    return variant in PREDICTORS and variant not in BR_VARIANTS


def cell_outputs_mode(outputs: str, variant: str,
                      br_overrides: Optional[dict] = None) -> str:
    """The outputs mode a cell's payload is produced under.

    ``"mpki"`` only when MPKI-only outputs were asked for *and* the cell
    can take the replay fast path: a predictor-only variant with no BR
    overrides.  Everything else — a BR variant under ``outputs="mpki"``
    included — runs the full simulator and yields the ``"full"`` payload
    shape.  Result-cache keys, sweep batch grouping and result-store
    keys all name a cell's mode through this one rule.
    """
    if outputs == "mpki" and is_predictor_only(variant) \
            and not br_overrides:
        return "mpki"
    return "full"
