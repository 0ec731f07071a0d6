"""Graph stability via canonical double covers.

A graph is stable when its canonical double cover has no automorphisms
beyond the expected ones (lifts of base automorphisms plus the layer
swap). This package decides stability exactly, implements the sufficient
criteria and constructions that govern it, and reproduces the census of
non-trivially unstable graphs at small orders.
"""

from .graph_core import (Graph, GraphParseError, StructuralProfile,
                         parse_graph6, write_graph6, structural_profile,
                         induced_subgraph)
from .aut import (OrderedPartition, CanonicalForm, refine, canonical_form,
                  are_isomorphic, vertex_orbits)
from .cover import (DoubleCover, StabilityReport, double_cover, lift, tau,
                    is_expected, stability_report)
from .criteria import (SrgParams, IntersectionArray, CriterionVerdict,
                       SoundnessError, srg_params, intersection_array,
                       criteria_summary)
from .families import (complete_graph, cycle, petersen, johnson, lex_product,
                       lexcycle, extend_xab, instability_witness,
                       XabExtension)
from .census import (CensusRow, XabWitness, enumerate_graphs, stream_graph6,
                     is_xab_realizable, census_row)

__version__ = "0.1.0"
