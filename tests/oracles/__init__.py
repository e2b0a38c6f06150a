"""Reference implementations kept as test oracles.

Each module holds the straightforward per-node form of a runtime kernel.
The runtime never imports them; the equivalence tests run both and
compare colours, reports, rounds and bits.
"""
