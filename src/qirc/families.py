"""Named tripartite state families addressable from the CLI and the checks,
by family strings such as ``ghz``, ``werner:<p>`` and ``gibbs:<beta>:<J>``."""

from __future__ import annotations

from . import states

# Each family: its parameter names, in the order the family string gives them,
# and the builder that takes them as strings.
FAMILIES = {
    "bell-spectator": ((), states.bell_spectator),
    "bell-ac": ((), states.bell_ac),
    "coherent-spectator": ((), states.coherent_spectator),
    "ghz": ((), states.ghz),
    "w": ((), states.w_state),
    "werner": (("p",), lambda p: states.compose_product(states.werner(float(p)),
                                                        states.maximally_mixed(2))),
    "classical": (("d",), lambda d: states.classical_correlated(int(d))),
    "gibbs": (("beta", "J"), lambda beta, j: states.gibbs(float(j), float(beta))),
}
KNOWN = ", ".join(base + "".join(f":<{p}>" for p in params)
                  for base, (params, _) in FAMILIES.items())


def build(name: str) -> states.DensityMatrix:
    base, _, rest = name.partition(":")
    args = rest.split(":") if rest else []
    params, make = FAMILIES.get(base, (None, None))
    if params is None or len(args) != len(params):
        raise ValueError(f"unknown family {name!r}; known families: {KNOWN}")
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad parameters for family {name!r}: {exc}") from exc
