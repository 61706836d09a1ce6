"""The jet recurrence of ``flowcore._coord_jets`` term by term, kept as an
oracle for the version that sums each order in one ``poly_dot``: with
g = a/b in homogeneous parts and m the lowest degree of b, the numerators
N_k = c_k b_m^(k-1) of the jets satisfy N_1 = lin and

    N_k = a_(m+k) b_m^(k-2) - sum_(j<k) N_j b_(m+k-j) b_m^(k-1-j),

built here by one Poly product and one subtraction per term."""
from projflow import Poly


def coord_jets(g, lin, K):
    """(nums, pows) with the k-th jet nums[k-1] / pows[k-1] and
    pows[k-1] = b_m^(k-1); None without the boundary condition."""
    nparts = g.num.homogeneous_parts()
    dparts = g.den.homogeneous_parts()
    m = min(dparts)
    bm = dparts[m]
    if min(nparts, default=m) != m + 1 or nparts[m + 1] != lin * bm:
        return None
    zero = Poly.zero(2)
    pows = [Poly.const(2, 1)]  # pows[i] = b_m^i
    nums = [lin]
    for k in range(2, K + 1):
        pows.append(pows[-1] * bm)
        acc = nparts.get(m + k, zero) * pows[k - 2]
        for j in range(1, k):
            part = dparts.get(m + k - j)
            if part is not None:
                acc = acc - nums[j - 1] * part * pows[k - 1 - j]
        nums.append(acc)
    return nums[:K], pows
