"""Exact real computation: lazy Kleeneans with select, interval-backed
reals with semi-decidable comparison, fast-Cauchy and nondeterministic
limits, and the algorithms built on them.  The package exports nothing;
import from its modules (``exactreal.creal``, ``exactreal.algorithms``)."""
