"""Layer bad fixture tree: upward, leaf, cycle and boundary-call violations."""
