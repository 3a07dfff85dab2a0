"""RPR004 corpus: capacity writes that bypass the ResidualState setters.

The hazard: ``ResidualState.node_capacity``/``link_capacity`` are plain
lists; writing them directly "works" — but skips the residual shift, so
greedy routing and ``fits()`` keep reading residuals computed against the
stale capacity and the capacity invariant silently breaks.
"""


def degrade_link_wrong(residual, position, factor):
    residual.link_capacity[position] *= factor  # BAD: residual not shifted
    return residual


def fail_node_wrong(residual, position):
    residual.node_capacity[position] = 0.0  # BAD: bypasses the setter
    return residual


def grow_wrong(residual, extra):
    residual.node_capacity.extend(extra)  # BAD: mutating the backing list
    residual.link_capacity.append(1.0)  # BAD: same, append flavor


def degrade_link_right(residual, link, factor):
    # OK: the setter shifts the residual along with the capacity.
    nominal = residual.nominal_link_capacity(link)
    return residual.set_link_capacity(link, nominal * factor)


def read_is_fine(residual, position):
    return residual.node_capacity[position]  # OK: reads are unrestricted


def unrelated_names(table, position):
    table.capacity[position] = 3.0  # OK: not a capacity list
    local_node_capacity = [1.0]
    local_node_capacity[0] = 2.0  # OK: a local list, not an attribute
    return table, local_node_capacity


EXPECTED = {
    "RPR004": [11, 16, 21, 22],
}
