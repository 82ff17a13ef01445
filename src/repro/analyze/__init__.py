"""Engine-aware static analysis.

The engine's whole design bet — native XML storage reusing relational
infrastructure — holds only while every component obeys the substrate's
protocols: pin/unpin pairing on the buffer pool, one global
lock-acquisition order, log-before-flush, and a sound metric namespace.
This package machine-checks those contracts statically:
``python -m repro.analyze src/`` runs AST-based checkers
(:mod:`~repro.analyze.pins`, :mod:`~repro.analyze.lockorder`,
:mod:`~repro.analyze.waldiscipline`, :mod:`~repro.analyze.statshygiene`,
:mod:`~repro.analyze.excsafety`, and the two checkers of
:mod:`~repro.analyze.races`) against the tree, with a documented
suppression baseline (:mod:`~repro.analyze.baseline`).  The shared facts
they reason with — call graph, effect summaries, acquisition sites — live
in :mod:`~repro.analyze.callgraph` and :mod:`~repro.analyze.effects`; the
driver is :mod:`~repro.analyze.cli`.

For concurrency, each class that creates a lock declares the fields it
guards (``GUARDED_BY``), and :mod:`~repro.analyze.races` checks the
declarations and the latch discipline (``RACE001`` declared field accessed
without its lock, ``RACE002`` check-then-act across a release, ``RACE003``
a declaration out of step with its class, ``LATCH001`` latch held across
a blocking call or another lock).

Each code is pinned to a seeded engine mutant it kills
(``tests/analyze/test_mutants.py``).  The engine never imports this
package: analysis reads the source, it does not run alongside it.
"""
