"""Wireless-powered two-hop MIMO-OFDM relay simulator and rate optimizer.

Import from the modules; the package itself exports nothing:

* :mod:`ehrelay.channel` - random fading channels with path loss.
* :mod:`ehrelay.system` - time-switching relay protocol and the reduced problem.
* :mod:`ehrelay.auglag` - augmented Lagrangian rate optimizer.
* :mod:`ehrelay.waterfill` - independent water-filling reference solver.
* :mod:`ehrelay.experiment` / :mod:`ehrelay.cli` - Monte Carlo sweeps and CLI.
"""

__version__ = "0.1.0"
