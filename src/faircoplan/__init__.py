"""Strategic deconfliction for on-demand urban air traffic.

Flights request vertiport-to-vertiport trips over a time-expanded grid
airspace. The negotiated planner grants each flight a set of space-time
choices (a joint MILP over shared vertiport and ring capacity), lets each
operator propose its own cheapest trajectory within those choices, then
resolves residual conflicts jointly — optionally weighting the spread of
detour ratios so no operator absorbs all of the disruption. A classical
fixed-route scheduling baseline and a rolling-horizon campaign simulator
sit alongside for comparison, and brute-force oracles validate every
optimizer on small instances.

The package itself holds only ``__version__`` and loads no submodule. Each
name has one home, its module: ``faircoplan.sim``, for instance, or
``faircoplan.serialize.load_scenario``; ``faircoplan.cli`` is the command
line.
"""

__version__ = "0.1.0"
