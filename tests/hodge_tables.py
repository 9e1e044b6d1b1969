"""Hodge structures written as (p, residue) -> dim tables, for the tests.

The package builds a structure from its Hodge vectors only.  A table is
the shorter way to write a small example by hand, and the entry-wise
route that some tests keep as an oracle."""

from halftwist.hodge import CMHodgeStructure, MalformedStructureError


def from_table(field, weight, table):
    """The structure whose (p, residue) entries are `table`: residues are
    reduced mod d and entries at one key add up.  A negative dimension,
    or a nonzero one outside 0 <= p <= weight, is a
    MalformedStructureError; so is anything the constructor rejects."""
    vectors = {}
    for (p, a), dim in table.items():
        if dim < 0 or (dim and not 0 <= p <= weight):
            raise MalformedStructureError(
                f"not effective: entry (p={p}, residue={a}) = {dim}"
            )
        vec = vectors.setdefault(a % field.d, [0] * (weight + 1))
        if dim:
            vec[p] += dim
    return CMHodgeStructure(field, weight, vectors)
