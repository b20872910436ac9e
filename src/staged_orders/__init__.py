"""Stagewise approximations of countable orders, and what they encode.

The kernel tracks partial orders built either by adding pairs (growing,
"ce") or deleting them (shrinking, "coce"), one checked snapshot per
stage. On top of it: a membership coding read off order scaffolding, a
set family mirroring a shrinking preorder, two dual codings of an
enumeration into chains/antichains, graph codings in comparability
structure, and solvers for the chain/antichain principles used to read
the objects back out.
"""
