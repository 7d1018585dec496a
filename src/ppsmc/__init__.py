"""Conditional sampling of event sequences with required event times.

Core pieces: sequence models over inter-arrival gaps (`models`), the particle
filter that samples conditioned on required events (`smc`), a likelihood-
maximizing beam-search baseline (`beam`), an exactly enumerable occupancy-grid
oracle (`oracle`), and a symbolic-music event domain (`music`).  Each name is
imported from the module that defines it, e.g.
``from ppsmc.smc import conditional_sample``.
"""

__version__ = "0.1.0"
