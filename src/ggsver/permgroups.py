"""Exact subgroups of the iterated wreath product W_N, one layer per level.

Every group here acts on the p**N leaves of the depth-N p-regular rooted tree
and lies in W_N, the tree automorphisms whose label at each vertex is a power
of the p-cycle: g sends child d of a vertex v to child d + g_v (mod p) of
g(v).  Leaves are numbered in base p, most significant digit first, so g_v
is read off a single image: the first leaf below v goes into child g_v of
g(v).  Generators outside W_N are refused with NotPGroup.

The level filtration W_N = st(0) >= st(1) >= ... >= st(N) = 1 has
elementary abelian factors: on st(m) the level-m labels form a vector in
F_p^(p^m), and g -> (g_v) is a homomorphism with kernel st(m+1).  A
subgroup H is stored as one layer per level m: a reduced echelon basis over
F_p of the label vectors of H & st(m), with one element of H & st(m) per
basis row, its representative.  With d_m the dimension of layer m:

* the canonical products r_0 r_1 ... r_(N-1), r_m a product of level-m
  representatives with exponents in 0..p-1, are the elements of H, each
  exactly once, so log_p|H| is the sum of the d_m;
* H & st(m) is the suffix of layers from m on (level_stabilizer);
* x lies in H exactly when reducing it level by level leaves the identity.
  At level m the exponents are the labels of x at the pivot columns, and x
  is divided by that product of representatives.  Everything divided out
  lies in H, so the test is exact for any permutation of the leaves.  A
  level m with no rows refuses x as soon as x has non-zero labels there:
  once the levels above m are divided out, a member lies in H & st(m), which
  is H & st(m+1) when layer m is empty, so its level-m labels are zero.

An element of st(N-1) is determined by its labels, so the last layer keeps
label rows only and decides by comparing labels.

Closure.  One routine builds every handle: the closure of seed elements
under conjugation by a list of ambient generators (PermGroup(degree, X, p)
takes X for both, normal_closure(K, S) takes S and the generators of K).
Each candidate is reduced level by level; a non-zero residual at level m is
scaled to a unit pivot, cleared from the other rows of its layer (an old
representative is multiplied by a power of the new one), and becomes a
representative r.  It queues (a) its conjugates by the ambient generators,
(b) r^p and, below level N-2, (c) its commutators with the other level-m
representatives, in a warm closure only with those it added (Warm
start).  (b) and (c) lie in st(m+1) and go ahead of the next seed or
conjugate; (a) are made as they leave the queue.  The closure runs in
two phases.  Phase 1 takes the seeds and the candidates (a), (b) and (c),
and adjoins their residuals above the last level; what reaches the last
level is queued as label vectors.  That leaves the layers above the last
final, and phase 2 closes the last layer from that queue (Bottom layer),
level N-2 commuting only with module generators T (Level N-2).  It stops
when every queued element has reduced to the identity.

Why that is the closure.  Every representative is a product of seeds,
conjugates and earlier representatives, so it lies in the closure.  Clearing
a pivot keeps, level by level, the group spanned by the representatives,
so an element that reduced to the identity lies in H_m, the group generated
by the final representatives at levels >= m, where m is its level.  Hence
(a) makes each H_m invariant under the ambient generators, and so normal in
a group containing every representative; (b) and (c) put the p-th powers and
the commutators of level-m representatives into H_(m+1), for m < N-2, and
Level N-2 shows that H_(N-2)/H_(N-1) is elementary abelian.  Induction down
from H_N = 1: H_m/H_(m+1) is elementary abelian and generated by the images
of the d_m final representatives, so |H_m : H_(m+1)| <= p^(d_m); the labels
map H_m onto their
d_m-dimensional span with kernel H_m & st(m+1), which contains H_(m+1), so
|H_m : H_(m+1)| >= p^(d_m).  Both are equalities: H_m & st(m+1) = H_(m+1),
and the canonical products from level m on are H_m, each once.  H_0 holds
every seed and is invariant under the ambient generators, so it is the
closure, and H_0 & st(m) = H_m.

Warm start.  A closure may start from the layers of a subgroup L that is
invariant under the ambient generators X and lies in the closure, and sift
only the seeds.  A = <X> is finite, so L is normal in A, and every L & st(m)
is invariant under X.  The closure records each level's dimension at its
start, and a new level-m representative r, m < N-2, queues its commutators
only with the rows added at level m since then, as they are when r is
admitted: not with the start's rows.  The induction above needs each H_m
invariant under X and H_m/H_(m+1) elementary abelian.  H_m contains L &
st(m) throughout, as clearing pivots keeps the group the representatives
span; so the conjugates of L's representatives, never queued, lie in L &
st(m), inside H_m, which is (a).  The p-th powers of L's level-m
representatives lie in L & st(m+1), inside H_(m+1), and those of the new
ones are queued.  It is left to show that H_m/H_(m+1) is abelian.  Clearing
a pivot keeps the group the level-m representatives generate, and multiplies
a row by a power of the row just added; so the rows added at level m, as
they are at any time, generate the group they generated as admitted, and the
final level-m representatives generate the group that R, L's level-m
representatives, and the added ones as admitted generate.  It is enough that
any two of those commute modulo H_(m+1).  H_(m+1) is normal in A, by (a),
and every representative lies in A (the seeds and L do), so for each r the y
with [r, y] in H_(m+1) form a subgroup, as [r, y z] = [r, z] [r, y]^z.  For
s, s' in R, [s, s'] lies in L and in st(m+1), as st(m)/st(m+1) is abelian.
For r added and s in R, [r, s] = (s^-1)^r s lies in L, as L is normal in A,
and in st(m+1), so in L & st(m+1), inside H_(m+1).  For r added after r',
[r, y] was queued for each y among the rows added before r, as they were
then, which generate a group that holds r' as admitted.  Level N-2 shows the
same of its factor, with [t, r] for the added r alone; a cold closure has R
empty, and its rows are all added.  H_0 holds L and every seed and is
invariant, and L lies in the closure, so H_0 is the closure.  It starts from
shares (_Layer.share): views of exactly the label rows L holds, which the
first row a level gains moves into new arrays, and L's own representatives
and divisors, which push replaces and never writes into, so L's layers
never change.
Two kinds of closure start warm.  G' is normal in G and lies in it, so
GroupSession builds G's layers from those of G' (PermGroup._grow_from),
in a closure that sifts only a, b_1, ..., b_r and their p-th powers
(Central start); its generators are those it added, not a generating set,
and _grow_from keeps only its layers.  A normal closure may be handed a
start (_normal_closure), a subgroup normal in the ambient group that lies
in the result; its generators are then the start's followed by those it
found.
GroupSession grows gamma3 from a subgroup N1 of G'', G' from gamma3, and
G'' from N1 when N1 is not all of it; st(1)' from G''; Phi(G) from G' when
the two differ; and N1 and [st(1)', st(1)] from one subgroup K (Derived
series).

Central start.  A warm closure may be promised more: that [H, A] <= L, for
H its result and A the group the ambient generators X generate, which makes
L normal in A.  It then queues no conjugate, no commutator of peers, no
commutator of Level N-2 and no conjugate stack, and sifts only the seeds and
the p-th powers of its new representatives.  The seeds and L lie in A, so H
does, and every H_m lies in H & st(m).  For x in H_m and y in X, x^y =
x [x, y] with [x, y] in [H, A] & st(m) <= L & st(m), which lies in H_m
(Warm start); so each H_m is invariant under X, which is (a).  For x, x' in
H_m, [x, x'] lies in st(m+1), as st(m)/st(m+1) is abelian, and in [H, A] <=
L, so in L & st(m+1) <= H_(m+1); so H_m/H_(m+1) is abelian, which (c) and
Level N-2 showed, and the p-th powers, still queued, make it elementary
abelian.  The induction of Why that is the closure then holds unchanged,
on the last level too.  Three closures are promised it: G from G', as [G,
G] = G'; Phi(G) from G', as Phi(G)/G' lies in the abelian G/G', so [Phi(G),
G] <= G'; and G' from gamma3 = [G', G] (Derived series).

Full levels.  A closure knows the dimensions of a group A that holds its
result: the ambient's, when its layers are built (_normal_closure), else
those of W_N.  When every layer of H from level m on has A's dimension, H &
st(m) = A & st(m), as the one lies in the other and both have order p to
the sum of those dimensions.  A candidate that reaches level m then lies in
H & st(m), so it leaves no residual there or below and records nothing.
It is sifted all the same, as every candidate is, to its first residual
or the last level; once the last layer is full, phase 1 queues no labels
for it and phase 2 is skipped, and a layer takes room for at most A's
dimension, plus the rows coming in.
When a residual at level m would fill layer m, and every layer from m+1
on is full, H takes A's layers from m on, the very objects, instead of
copying its own to add the row: they have the rows of the same span, in
A's order, with A's representatives.  The candidate is still recorded at
level m, and everything its representative would queue starts at level m
or below and would leave no residual, so the generators, and the layers
above m, are those of the closure that adds the row, and what Generators
of a quotient proves of them holds.

Normal generators.  A handle records how it was made in one Origin, its
origin: the ambient it was closed in, elements whose closure under the
ambient's generators it is, and the levels of its generators (Generators of
a quotient).  A normal closure, cold or warm, records as its elements every
seed it was handed, in order: H_0 is the closure of the seeds, as it holds
every seed and, when warm, the start, which lies in the closure (Why that is
the closure).  In a cold closure the seeds that left a residual are the
prefix of the generators found: those are listed in the order their
candidates were taken, and conjugates join the main queue behind every
seed.  A seed that left no residual lies in the group generated by the
seeds before it: phase 1 takes no conjugate before the last seed, and phase
2 reduces the seeds' labels before anything a conjugate made, so the
representatives it was reduced by are built from those seeds by products,
powers and commutators.  In a warm closure it may reduce by the start's
representatives instead.

Containment reads the same record.  If H's origin is E in an ambient A, and
K is A or its origin's ambient is A too, K is invariant under A's
generators, so the closure H of E under them lies in K exactly when E does,
and the first element of E outside K, the first seed outside K, is the
witness, whether H was closed cold or warm.  For a cold closure it is also
the first of H's generators outside K, the witness a scan of every generator
gives: the seeds before it lie in K, so it left a residual (Normal
generators), and those that left one are the prefix of the generators.  So
containment_witness sifts E, or for a cold closure the fewer of E and H's
generators: a cold closure of many redundant seeds, such as derived() of a
group given by many generators, records far more seeds than the generators
it finds.  When K is A itself, or K is H, containment_witness sifts
nothing.  H is then the closure under A's generators of elements of A, so
it lies in A: a normal closure checks that its seeds lie in A, and
derived(), commutator_subgroup, GroupSession.st1() and the session's
derived series build theirs from A's elements.  A handle closed in no group
has no ambient, and matches none.

Block starts.  The block starts are the first leaves below the level-(N-1)
vertices, vp for v on that level (_Tree.starts[-1]).  An element x of W_N is
fixed by h, its images of the block starts: x sends child c of v to child
c + x_v of x(v), and x(vp) = p x(v) + x_v, so x(vp + c) = x(vp) - x(vp) mod p
+ (x(vp) + c) mod p (_Tree.expand).  Every label a sift reads is the image of
a block start: the level-m labels are read at the first leaf below each
level-m vertex, leaf k p^(N-m), which is block start k p^(N-m-1), so every
p^(N-1-m)-th of h, and the exponents at the pivots' (_Layer.heads).  And h
composes as a leaf array does: the element x followed by y, y[x] as arrays,
has the images y[h] there, for any permutation y.  So phase 1 carries each
candidate as h, p^(N-1) entries: a seed is restricted once; the conjugate
s^-1 w s is s[w[t]], with t the images of the block starts under s^-1, made
once per ambient generator and closure; a new representative's p-th power,
and its commutators with peers above level N-2, are gathered on the block
starts from the full representatives.  _sift_upper divides h by one gather
of the divisor per non-zero exponent, level by level, and reads the labels
that a sift of the full array reads, at the end the last level's off h
itself; so every candidate has the residuals it has as a permutation, and
the layers, the queues and the generators are those of sifting
permutations.  Every candidate lies in W_N, as the seeds and the ambient
generators do (Level N-2), so it is the one element its h fixes.  A
candidate is expanded only when it leaves a residual above the last level:
the element divided so far, to become a representative, the layers keeping
full arrays, and a conjugate from the main queue, which is recorded as its
generator.  Membership (contains) divides full arrays, as it must be exact
for any permutation, and one outside W_N is not fixed by its block starts.

Bottom layer.  An element w of st(N-1) is its level-(N-1) label vector u,
and the closure queues such candidates as vectors, not leaf permutations,
in stacks, one vector per row.  Conjugation permutes labels: y^-1 w y has
labels u[pull], pull being the level-(N-1) vertex map of y^-1, built once
per closure for each ambient generator.  The p-th power of a new level-(N-2)
representative, and the commutators of Level N-2, are evaluated on the
block starts only, the commutators of one t with up to _RUN of its peers in
one gather, over those peers and their inverses stacked once for every t.
Phase 1 sifts a candidate through the levels above the last only, on the
block starts (Block starts); if it leaves no residual
there, its level-(N-1) labels become a stack of one, unless the last layer
is full (Full levels).  The stacks of seeds and p-th powers join one queue
as made; a conjugate's waits apart, in the order taken.  Phase 2 queues
after phase 1's stacks the commutators of Level N-2, then the conjugates'
stacks, and takes the stacks in order, each whole, into runs.  A run is
reduced against the last layer in one matrix product once it holds _RUN
vectors, or when the queue is empty; it may pass _RUN by one stack.  Its
residuals are written into the last layer's own rows and added one at a
time in queue order: each that is still non-zero becomes a row, and one
elimination clears its pivot from the rows added before it and from the
residuals still pending; the rows the layer had before the run lose the new
pivots at the end, in one product.  A reduced echelon basis is fixed by its
span and its pivots, so the rows are those of adding one at a time.
The conjugates of the rows one reduction adds form one stack, taken from
each row as it was added, before later rows cleared their pivots, row by
row in the order added, and join the tail of the queue; that is the order
and the value in which one-at-a-time adding queues them.

Pivots.  Every row added, on any layer, takes as its pivot the first
non-zero column of its residual, and stays zero before it.  A later pivot
is cleared from a row only when the row is non-zero there, so, the row
being zero before its own pivot and the later residual zero at that pivot,
only when the later pivot lies past the row's; and the later row is zero
before its pivot, so the row's columns up to its pivot are kept.  So each
row's pivot is its first non-zero column, the pivots are the first
non-zero columns of the vectors of the span, and the rows sorted by pivot
are the span's reduced echelon basis: they depend on the span alone, not
on the order its vectors came in.

Level N-2.  Let V be the span of the level-(N-2) layer and V.I the sum of
V(x - 1), x running over the ambient generators X (the rows moved by x's
vertex map, less the rows).  A new level-(N-2) representative queues its
p-th power alone.  Phase 1 leaves the layers above the last final, as
nothing on the last level feeds them; phase 2 then takes T, final
level-(N-2) representatives whose rows span V modulo V.I, and queues [t, r]
for each t in T and each final level-(N-2) representative r of a row the
closure added, from the start's dimension on (every row, in a cold closure),
as stacks of at most _RUN rows that are never recorded as generators.  T is
the rows that still add a pivot, in row order, to a scratch layer that holds
V.I (_module_generators), or, when the closure added at most |X| rows at
level N-2, those rows.  This needs the seeds, and the start, to lie in A,
the group X generates: every caller closes elements of its ambient group
under that group's generators (normal_closure checks its seeds; derived(),
commutator_subgroup and the session's subgroups build theirs from the
ambient group's elements; a start lies in the result), and so does the
subdirect check, whose seeds are slot sections of elements of st(1), which
the slot sections of st(1)'s generators generate.  That check closes a
projection only when G''s slot-0 pivots fall short of certifying it
(checks.check_subdirect); this holds for every projection it closes.
Why it is enough.  Let M = H_(N-1), the last layer's group at the end.  M is
invariant under X, so normal in the finite group A, and every representative
lies in A, so normalizes M; H_(N-2) is normal in A too, by (a).  For t in T
the y with [t, y] in M form a subgroup among the elements that normalize M,
as [t, y z] = [t, z] [t, y]^z.  It holds M, as t normalizes it; the final
representatives of the rows the closure added, whose commutators with t were
queued; and R, the start's level-(N-2) representatives, as [t, s] lies in L
& st(N-1), inside M, for s in R (Warm start: t lies in A, and L is normal in
A).  The added rows, as they end, generate the group they generated as
admitted, so with R they generate the group the final level-(N-2)
representatives generate (Warm start), and the subgroup holds all of
H_(N-2): t is central in H_(N-2) modulo M, and so is each A-conjugate of t,
as [t^a, y] = [t, y^(a^-1)]^a.  A is a p-group, so its augmentation ideal I
is nilpotent on V (V.I is the sum above, as I is generated by the x - 1),
and the A-submodule spanned by T, which with V.I spans V, is V (Nakayama).
So K = <T^A> M has the labels V, and H_(N-2) = K (H_(N-2) & st(N-1)): K/M is
central in H_(N-2)/M, and the second factor, in the abelian st(N-1), is
abelian, so H_(N-2)/M is abelian.  When T is the rows the closure added,
H_(N-2) = <R, T> M, as clearing pivots keeps the group the representatives
span: pairs in R commute modulo the start's last group, which lies in M, and
each t is central modulo M as above, so again H_(N-2)/M is abelian.  Either
way it is generated by the images of the level-(N-2) representatives ever
made, each of order p modulo M by (b), so it is elementary abelian, as Why
that is the closure needs.
A conjugate whose labels leave a residual is recorded as the element they
determine, the conjugate divided by representatives above the last level,
and so is a row of a conjugate stack; those generators are made only after
the layers are trimmed (the end of _close), so that they never take memory
together with the copies a trim makes.

The label vectors are stored in the narrowest unsigned type that holds
p - 1, uint8 unless p > 256: the tree's level-(N-1) digits have that type,
and so do the last-level labels a sift reads, the stacks of p-th powers and
commutators of level-(N-2) representatives and the conjugate stacks.  A
stack takes an eighth of the bytes of intp, and its product with float32
rows (Exact in float32) runs in single precision, where intp would promote
it to float64.
Above the last level a new representative is queued once per ambient
generator, as the very array its layer keeps, once push has cleared its
pivot from the older representatives; the conjugate by that generator is
made, on the block starts, when the item leaves the queue.  When a later row
clears its pivot, push gives the row a new representative and writes into
none, so the
conjugate is the one made at once from the representative as it was, and
one array of the degree's length is held per representative instead of
one per ambient generator.

Exact in float32.  The label rows of a tree's layers are float32 when
(p-1)^2 p^(N-1) + p^3 < 2^22 (_row_type), else float64.  The float code
forms only integers, and under that bound every one of them is below 2^22 in
absolute value, which float32 holds exactly: a residual, or a membership
product, sums u_i r_ij over at most p^(N-1) pivots, each term in
0..(p-1)^2, so every partial sum too, in whatever order the product adds
them, and u minus that sum lies above -(p-1)^2 p^(N-1); so does extend's
product of the old rows' labels at the new pivots with the new rows, and
the old rows less it; _clear subtracts
from rows in 0..p-1 the products c r_j, with c = t scale in 0..(p-1)^2 or
c = 1 - scale above -p, so its values lie strictly between -p^3 and p^3.
_mod(a, p) rounds a/p to float32 with relative error at most 2^-24, so off
by less than 2^22/p 2^-24 = 1/(4p); a/p is an integer, which is then
exact, or lies at least 1/p from every integer, so its floor is exact, and
so are q p and a - q p.  Membership takes no _mod: its product, an integer
in 0..(p-1)^2 p^(N-1), is exact, and from_last_labels reduces it mod p in
integers.  The bound admits p=3 up to N=13, p=5 up to N=8 and p=7 up to
N=6.

Deferring the last level so is exact.  Take the closure that sifts each
candidate as a permutation, one at a time in queue order, and holds back
the conjugates that reach the last level, and those of its rows, until the
commutators of Level N-2 are queued.  Phase 1 never reads or writes the
last layer, and nothing phase 2 queues goes above it, so phase 1 adjoins
that closure's residuals above the last level, and phase 2 adds its
level-(N-1) vectors in its queue order.  A vector's residual against a
reduced echelon basis is the one vector of its coset that vanishes on the
pivots, so a run gives each vector the residual it has against the rows
added before it, and a vector whose residual is zero is dropped exactly
where sifting it as a permutation would drop it.  So the rows, pivots and
representatives are that closure's, and so are the generators, in the
order their candidates left the main queue: a seed whose labels wait keeps
its place from phase 1, and drops out when they add no row; a main-queue
candidate that leaves a residual on the last level is recorded as its
permutation for a seed, else as the element of st(N-1) its labels
determine.

Quotients.  For H <= W_N and m < N, truncate(m) returns pi_m(H), the
action of H on the level-m vertices, read off H's layers with no closure.
For k < m the level-k labels of pi_m(h) are those of h, and pi_m(h) fixes
level k exactly when h does, so pi_m(H) & st(k) = pi_m(H & st(k)): layer k
of pi_m(H) has the rows and pivots of layer k of H, and the restrictions of
its representatives and divisors to level m are representatives and
divisors there (x restricted to level m is x[::p^(N-m)] // p^(N-m), as each
level-m vertex is read at the first leaf below it).  Level m-1 becomes the
last layer and keeps its rows only; level-k labels are read on level
k+1 <= m, so every layer is exact.  The layers at levels >= m lie in st(m)
and drop out.

Generators of a quotient.  The closure records in its origin, with each
generator it finds, the level where it left its residual.  truncate(m) keeps
the restrictions of those found above level m, and all of the generators
given by hand (a handle's own, a level stabilizer's representatives).  They
generate pi_m(H): the canonical products are H, so the restricted
representatives at levels below m generate pi_m(H), and by induction over
the closure each representative at a level k < m is, modulo st(m), a word in
the kept generators found at levels <= k.  A representative at level k is a
power of a residual, or an earlier one times a power of one, and a residual
is its candidate divided by representatives at levels <= k.  The candidate
is a seed or a conjugate that left its residual at level k, so a kept
generator, or a p-th power or commutator of representatives at a level below
k, words by induction.  Representatives at levels >= m lie in st(m).  A warm
normal closure lists the start's generators and levels first, a start's
generators given by hand at level 0 so that every truncation keeps them: a
start's representatives at level k are, by the same induction, words in the
start's generators found at levels <= k, and the induction goes through from
them.

Derived series.  GroupSession closes a subgroup of G'' first and grows
gamma3, G' and G from it, so the layers they share are built once, not once
for each.  Let X be G's generators and S the non-trivial commutators of
pairs of them: derived() closes S under X, and G' is that closure.
(0) K, the one cold closure.  Let n be the first seed of (1), and F the
generators of st(1), made from X alone (GroupSession._st1_generators).  K
is the cold closure under X of the non-trivial [n, f], f in F.  W_N/st(1)
is cyclic, so G' <= st(1) and G'' <= st(1)'.  n lies in N1 by (1), which is
normal in G, so [n, f] = n^-1 n^f lies in N1, and N1 holds K; n lies in
G'' <= st(1)' and f in st(1), so [n, f] lies in [st(1)', st(1)], which is
normal in G (st(1) is, and the term is characteristic in it) and holds K
too.  K is normal in G, so it is a start (Warm start) for N1 and for
[st(1)', st(1)], and only K closes cold.  Its seeds are words in X, so none
is sifted, and G's layers are not read.  There is no K on the constant
vector, where no check reads [st(1)', st(1)], nor when every [n, f] is
trivial; N1, and [st(1)', st(1)] through normal_closure, then close cold.
(1) N1 <= G''.  N1 is the closure under X of the non-trivial [s, y], s in
S and y in S or some x^-1 s x, x in X, grown from K when there is one.
Each s and y lies in G', which is normal in G, so each seed is a commutator
of two elements of G' and lies in G'' = [G', G'], which is normal in G and
so holds the closure N1.  The seeds are words in X, so none is sifted into
G.
(2) gamma3, then G'.  gamma3 = [G', G] is the closure under X of the [s,
x], s in S and x in X (commutator_subgroup: S closes to G' under X, and G'
is normal in G), grown from N1, which is normal in G and lies in G'' =
[G', G'] <= [G', G].  G' is the closure of S grown from gamma3, which holds
[G', G], so centrally (Central start): it sifts S and p-th powers alone.
Burnside for the generators of G'.  By the induction of Generators of a
quotient, for every m <= N (pi_N the identity) pi_m(G') is generated by the
restrictions of the seeds s that left a residual above level m, of the
generators gamma3's closure found above level m, and of N1's generators.
As pi_m is a homomorphism, pi_m(N1) lies in pi_m(G'') = [pi_m(G'),
pi_m(G')], and the derived subgroup of a finite p-group P lies in its
Frattini subgroup Phi(P), whose elements may be left out of any generating
set (Burnside's basis theorem).  So G' records S followed by what gamma3's
closure found beyond N1: each s at the level of its residual, or at level N
when it left none (it is then a word in the representatives, so no proper
quotient needs it), and gamma3's with their levels; they generate G', and
truncate(m) keeps those that generate pi_m(G').  S comes first, so the
first generator of G' outside a subgroup invariant under X is the first s
outside it, the element containment_witness names.
(3) The certificate for G''.  With F the generators G' records, G'' is the
normal closure in G of the [s, f], s in S and f in F (commutator_subgroup: S
closes to G' under X, F generates G', and G' is normal in G).  F starts with
S, and each [s, s'], s' in S, is trivial or a seed of (1), so lies in N1;
only the [s, f] with f past S, what gamma3's closure found, are sifted into
N1.  When N1 holds all of them it holds their normal closure, so N1 = G''.
Otherwise G'' is the closure of N1's normal generators and the [s, f]
outside N1, grown from N1: each seed lies in G'', and the closure holds N1
and every [s, f].  Either way the result is G'' exactly, whatever seeds (1)
took; they decide only how much is left for the certificate.  G's layers
then grow centrally from those of G'.

Everything here is deterministic: candidates are processed in queue order
and representatives are kept in the order they were found.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from typing import NamedTuple

import numpy as np

from .portraits import DegreeMismatch, Perm, level_of_degree

__all__ = [
    "NotPGroup",
    "ElementNotInAmbient",
    "Origin",
    "PermGroup",
    "normal_closure",
    "commutator_subgroup",
]


class NotPGroup(ValueError):
    """A generator lies outside the iterated wreath product W_N."""


class ElementNotInAmbient(ValueError):
    """A seed element lies outside the ambient group."""


def _inverse(arr: np.ndarray) -> np.ndarray:
    inv = np.empty_like(arr)
    inv[arr] = np.arange(len(arr), dtype=arr.dtype)
    return inv


def _comm_rows(x, xinv, ys, yinvs, points) -> np.ndarray:
    """Row j: [x, ys[j]] at the points, an index into the leaves, in one
    gather; ys and yinvs hold elements and their inverses, one per row."""
    v = x[yinvs.take(xinv[points], axis=1)]
    # flat indices into ys, row j offset by j times its length
    v += np.arange(0, ys.size, ys.shape[1])[:, None]
    return ys.take(v)


def _conj(w: np.ndarray, s: np.ndarray, sinv: np.ndarray) -> np.ndarray:
    # s^-1 w s
    return s[w[sinv]]


def _power(x: np.ndarray, k: int) -> np.ndarray:
    out = x
    for _ in range(k - 1):
        out = x[out]
    return out


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    # a mod p, in place, for float arrays of small integers; exact, and
    # faster than %
    q = a / p
    np.floor(q, out=q)
    q *= p
    a -= q
    return a


# label vectors of st(N-1) reduced against the last layer in one product;
# a run may pass it by one stack
_RUN = 64


def _row_type(p: int, n: int):
    """The float type of the label rows of the depth-n tree: float32 when
    every value the float code forms is an integer below 2**22, so held
    exactly (Exact in float32 in the module docstring), else float64."""
    return np.float32 if (p - 1) ** 2 * p ** (n - 1) + p**3 < 2**22 else np.float64


class _Tree:
    """Index tables of the depth-n p-regular tree, and the float type of its
    layers' label rows."""

    def __init__(self, p, n: int):
        self.p = p
        self.depth = n
        self.row_type = _row_type(p, n)
        idn = np.arange(p**n, dtype=np.intp)
        idn.setflags(write=False)
        self.identity = idn
        # the level-m labels of x are digits[m][x[starts[m]]]; the last
        # level's in the narrowest unsigned type, so that the label stacks
        # a closure queues are narrow and multiply the rows in one precision.
        # starts[-1] are the block starts (Block starts in the module
        # docstring), and each starts[m] is every p^(n-1-m)-th of them
        self.starts = [idn[:: p ** (n - m)] for m in range(n)]
        self.digits = [idn // p ** (n - m - 1) % p for m in range(n)]
        self.digits[-1] = self.digits[-1].astype(np.min_scalar_type(p - 1))
        self.parent = idn // p
        self.base = idn - idn % p

    def from_last_labels(self, u: np.ndarray) -> np.ndarray:
        """The element of st(n-1) whose level-(n-1) labels are u, or a stack
        of them, one per row of u."""
        return self.base + (self.identity + u.take(self.parent, axis=-1)) % self.p

    @functools.cached_property
    def _cycles(self) -> np.ndarray:
        """Row a: the leaves of a's block, from a on cyclically."""
        p = self.p
        return self.base[:, None] + (self.identity[:, None] + self.identity[:p]) % p

    def expand(self, h: np.ndarray) -> np.ndarray:
        """The element of W_n whose images of the block starts are h: the
        leaves of each block follow its start cyclically (Block starts in
        the module docstring)."""
        x = np.empty(len(h) * self.p, dtype=np.intp)
        # block v is the row of h[v]; out is x's own memory, filled unbuffered
        self._cycles.take(h, axis=0, out=x.reshape(len(h), self.p), mode="clip")
        return x

    def pull(self, yinv: np.ndarray, m: int = -1) -> np.ndarray:
        """The level-m vertex map of y^-1, the last level's by default, from
        yinv, the images under y^-1 of every leaf or of the block starts
        alone, which hold the first leaf below each level-m vertex: the
        labels of y^-1 w y, for w in st(m) with level-m labels u, are
        u[pull(yinv, m)]."""
        m %= self.depth
        return yinv[:: len(yinv) // self.p**m] // self.p ** (self.depth - m)

    def power(self, x: np.ndarray) -> np.ndarray:
        """The images of the block starts under x^p."""
        v = x[:: self.p]
        for _ in range(self.p - 1):
            v = x[v]
        return v

    def power_labels(self, x: np.ndarray) -> np.ndarray:
        """The level-(n-1) labels of x^p, for x in st(n-2)."""
        return self.digits[-1][self.power(x)]

    def in_wreath(self, x: np.ndarray) -> bool:
        """x preserves every level and shifts each vertex's children
        cyclically."""
        p = self.p
        for m in range(self.depth):
            bs = p ** (self.depth - m - 1)
            blocks = x.reshape(p ** (m + 1), bs) // bs
            heads = blocks[:, 0]
            if not (blocks == heads[:, None]).all():
                return False
            kids = heads.reshape(p**m, p)
            if not ((kids - kids[:, :1]) % p == np.arange(p)).all():
                return False
        return True


class _Layer:
    """Reduced echelon basis over F_p of the level-m labels of H & st(m), as
    float rows of the tree's row_type: float32 where that is exact, else
    float64 (Exact in float32 in the module docstring); a truncation shares
    rows in the type they have.  leaves[j] = pivots[j] *
    below, with below = p**(N-m), is the first leaf below the vertex of
    pivot j, so one gather reads an element's exponents, and heads[j] =
    leaves[j] / p is that leaf's place among the block starts, where a
    closure reads them (Block starts in the module docstring).  Below the
    last
    level row j has a representative reps[j], and divs[c-1][j] is reps[j]
    raised to -c: reps and the p-1 lists of divs hold one read-only array
    per row, each its own, and are empty on the last level.  A layer with
    no rows makes membership refuse at once an element with non-zero
    labels at its level: a member's are zero there (module docstring).
    The label rows, pivots, leaves and heads grow by doubling, up to cap
    plus the
    rows being added; rows from dim on are unused, or hold residuals on
    their way in, until the closure drops them.  A new row appends its
    representative and divisors, and push replaces those of a row it
    rewrites, so no representative is copied when the layer grows, is
    shared or is trimmed, and none is written into once kept.  add and
    extend take residuals through one elimination, _clear; extend clears
    the pivots it adds from the rows the layer had in one product.  cap is
    the most rows the layer can reach: its width, or the dimension of the
    ambient group's layer when a closure knows it (_close)."""

    __slots__ = ("rows", "pivots", "leaves", "heads", "below", "dim", "reps", "divs", "cap")

    def __init__(self, tree: _Tree, m: int):
        self.rows = np.empty((0, tree.p**m), dtype=tree.row_type)
        self.pivots = np.empty(0, dtype=np.intp)
        self.below = tree.p ** (tree.depth - m)
        self.leaves = np.empty(0, dtype=np.intp)
        self.heads = np.empty(0, dtype=np.intp)
        self.dim = 0
        self.reps = []
        self.divs = [[] for _ in range(tree.p - 1)]
        self.cap = tree.p**m

    def resize(self, size: int) -> None:
        """Room for exactly `size` label rows, pivots, leaves and heads, the
        first dim kept; the representatives and divisors are not touched."""
        d = self.dim
        self.rows = _fit(self.rows, size, d)
        self.pivots = _fit(self.pivots, size, d)
        self.leaves = _fit(self.leaves, size, d)
        self.heads = _fit(self.heads, size, d)

    def residual(self, u: np.ndarray, p: int, out=None) -> np.ndarray:
        """The residuals against this layer of u, one label vector or a stack
        of them, one per row; written into out when given."""
        d = self.dim
        r = np.matmul(u[..., self.pivots[:d]], self.rows[:d], out=out)
        return _mod(np.subtract(u, r, out=r), p)

    def _take(self, n: int) -> np.ndarray:
        """The n rows from dim on, room for them made first."""
        d = self.dim
        if d + n > len(self.rows):
            # a layer has at most cap rows, plus those coming in
            self.resize(min(max(16, 2 * len(self.rows), d + n), self.cap + n))
        return self.rows[d : d + n]

    def _reduced(self, r: np.ndarray) -> np.ndarray:
        """r, a residual or a stack of them, checked to be zero at every pivot."""
        if np.count_nonzero(r[..., self.pivots[: self.dim]]):
            raise AssertionError("a residual is not reduced against its layer")
        return r

    def _clear(self, k: int, start: int, end: int, p: int):
        """Make row k, zero at every pivot, row dim: scaled to a unit pivot,
        with its pivot column cleared from every other row from start to
        end.  The rows from dim up to k must be zero.  Returns the new row,
        the rows hit (k among them) with their multiples, and the scale, or
        None when row k is zero."""
        rows = self.rows
        row = rows[k]
        nonzero = row.nonzero()[0]
        if not len(nonzero):
            return None
        j = int(nonzero[0])
        scale = pow(int(row[j]), -1, p)
        col = rows[start:end, j]
        hit = col.nonzero()[0]
        t = col[hit]
        hit += start
        # one product scales row k and clears column j from the others: row
        # k loses 1 - scale times itself, row i loses t_i scale times it
        c = t * scale
        c[hit.searchsorted(k)] = 1 - scale
        rows[hit] = _mod(rows[hit] - np.multiply.outer(c, row), p)
        d = self.dim
        row = rows[k].copy()
        if k != d:
            rows[k] = 0
            rows[d] = row
        self.pivots[d] = j
        self.leaves[d] = j * self.below
        self.heads[d] = j * self.below // p
        self.dim = d + 1
        return row, hit, t, scale

    def add(self, residual: np.ndarray, p: int):
        """Append a residual (zero at every pivot) as a unit-pivot row and
        clear its pivot from the other rows.  Returns the scale applied and
        (row, multiple) for each older row that lost a multiple of the new
        one."""
        d = self.dim
        self._take(1)[0] = self._reduced(residual)
        _, hit, t, scale = self._clear(d, 0, d + 1, p)
        return scale, [(i, int(c)) for i, c in zip(hit.tolist(), t.tolist()) if i != d]

    def extend(self, u: np.ndarray, p: int):
        """Add the residuals of u, a stack of label vectors, one at a time in
        order, as add would: each residual still non-zero once the rows added
        before it are cleared from it becomes a row.  When every residual is
        zero it returns at once, and takes no room: a layer shared from a
        start keeps its arrays.  Else the residuals are written into the rows
        from dim on; one elimination per new row clears it from the rows
        added before it and from the residuals still pending, and moves it
        up to follow the rows before it.  The rows the layer had lose the
        new pivots last, in one product; the reduced echelon basis with the
        pivots found is unique, so the rows are those of adding one at a
        time.  Returns the indices into u of the new rows and those rows as
        added, before later rows cleared their pivots."""
        d = self.dim
        residuals = self._reduced(self.residual(u, p))
        pending = np.flatnonzero(np.count_nonzero(residuals, axis=1)).tolist()
        if not pending:
            return [], np.empty((0, self.rows.shape[1]), self.rows.dtype)
        self._take(len(u))[:] = residuals
        end = d + len(u)
        added, as_added = [], []
        for i in pending:
            got = self._clear(d + i, d, end, p)
            if got is not None:
                added.append(i)
                as_added.append(got[0])
        if added and d:
            rows, new = self.rows, self.pivots[d : self.dim]
            hit = np.flatnonzero(np.count_nonzero(rows[:d, new], axis=1))
            # exact: each entry sums len(new) <= p^m products below p^2
            rows[hit] = _mod(rows[hit] - rows[hit][:, new] @ rows[d : self.dim], p)
        return added, np.array(as_added).reshape(len(added), self.rows.shape[1])

    def keep(self, j: int, rep: np.ndarray) -> None:
        """Make rep the representative of row j, with its divisors, each
        read-only: appended when j is the next row, else in place of row
        j's arrays, which are not written into."""
        new = [rep, _inverse(rep)]
        for _ in range(len(self.divs) - 1):
            new.append(new[1][new[-1]])
        for a in new:
            a.setflags(write=False)
        planes = [self.reps, *self.divs]
        if j < len(self.reps):
            for plane, a in zip(planes, new):
                plane[j] = a
        else:
            for plane, a in zip(planes, new):
                plane.append(a)

    def push(self, hits) -> np.ndarray:
        """Clear the newest representative's multiples out of the older
        ones: hits holds (row, multiple) for each old row that lost a
        multiple of the new one.  Returns the newest representative."""
        d = self.dim - 1
        for i, t in hits:
            # row i lost t times the new row, so its representative does too
            self.keep(i, self.divs[t - 1][d][self.reps[i]])
        return self.reps[d]

    def share(self) -> "_Layer":
        """A layer with this one's rows that a closure may grow apart from it.
        Its label rows, pivots, leaves and heads are views of exactly dim
        rows, so
        the first row it gains resizes them into new arrays before anything
        is written; its representatives and divisors are new lists of the
        same arrays, which push replaces and never writes into.  So this
        layer never changes."""
        out = _Layer.__new__(_Layer)
        d = out.dim = self.dim
        out.rows, out.pivots, out.leaves = self.rows[:d], self.pivots[:d], self.leaves[:d]
        out.heads = self.heads[:d]
        out.reps, out.divs = self.reps[:d], [plane[:d] for plane in self.divs]
        out.below, out.cap = self.below, self.rows.shape[1]
        return out


def _fit(a: np.ndarray, size: int, keep: int) -> np.ndarray:
    """A new array like a with `size` rows, the first `keep` copied from a."""
    out = np.empty((size, *a.shape[1:]), a.dtype)
    out[:keep] = a[:keep]
    return out


class _Layers:
    """The layers of one subgroup of W_N.  Layers are shared with the
    suffixes handed out as level stabilizers and never change once built."""

    __slots__ = ("tree", "levels")

    def __init__(self, tree: _Tree, levels=None):
        self.tree = tree
        self.levels = levels or [_Layer(tree, m) for m in range(tree.depth)]

    def dimensions(self) -> list[int]:
        return [lvl.dim for lvl in self.levels]

    def truncate(self, m: int) -> "_Layers":
        """Layers of the level-m quotient, 1 <= m < depth: levels 0..m-2
        share rows and pivots and restrict their representatives, whose
        divisors keep makes anew, level m-1 keeps its rows only, and every
        level reads its leaves on the smaller tree; see Quotients in the
        module docstring."""
        tree = _Tree(self.tree.p, m)
        step = self.tree.p ** (self.tree.depth - m)
        levels = []
        for k, lvl in enumerate(self.levels[:m]):
            out = _Layer(tree, k)
            out.rows, out.pivots, out.dim = lvl.rows, lvl.pivots, lvl.dim
            out.leaves = lvl.pivots[: lvl.dim] * out.below
            out.heads = out.leaves // tree.p
            if k < m - 1:
                for j, rep in enumerate(lvl.reps):
                    out.keep(j, rep[::step] // step)
            levels.append(out)
        return _Layers(tree, levels)

    def suffix(self, m: int) -> "_Layers":
        empty = [_Layer(self.tree, k) for k in range(m)]
        return _Layers(self.tree, empty + self.levels[m:])

    def representatives(self, start: int):
        """Representatives from level start on, level by level, in the order
        they were found."""
        for lvl in self.levels[start:-1]:
            yield from lvl.reps[: lvl.dim]
        last = self.levels[-1]
        for row in last.rows[: last.dim]:
            yield self.tree.from_last_labels(row.astype(np.intp))

    # -- reduction -----------------------------------------------------------

    def _exponents(self, x: np.ndarray, m: int) -> np.ndarray:
        lvl = self.levels[m]
        return self.tree.digits[m][x[lvl.leaves[: lvl.dim]]]

    def _divide(self, x: np.ndarray, m: int) -> np.ndarray:
        lvl = self.levels[m]
        if lvl.dim:
            for j, k in enumerate(self._exponents(x, m).tolist()):
                if k:
                    x = lvl.divs[k - 1][j][x]
        return x

    def contains(self, x: np.ndarray) -> bool:
        """Divide x level by level and compare what is left with the element
        of the last layer whose exponents it shows; a level with no rows
        refuses x at once if x has non-zero labels there."""
        tree = self.tree
        last = tree.depth - 1
        for m, lvl in enumerate(self.levels[:last]):
            if lvl.dim:
                x = self._divide(x, m)
            elif np.count_nonzero(tree.digits[m][x[tree.starts[m]]]):
                return False
        lvl = self.levels[last]
        # exact unreduced (Exact in float32); from_last_labels reduces mod p
        u = self._exponents(x, last) @ lvl.rows[: lvl.dim]
        return bool((x == tree.from_last_labels(u.astype(np.intp))).all())

    def _sift_upper(self, h: np.ndarray, start: int):
        """Sift an element of st(start) & W_N, given by h, its images of the
        block starts, through the levels from start to the last, dividing by
        the representatives its non-zero exponents select: (level, h,
        labels) of the first non-zero residual above the last level, h that
        of the element divided so far, else (last level, h, its last-level
        labels).  Reads only the layers above the last (Block starts in the
        module docstring)."""
        tree = self.tree
        last = tree.depth - 1
        for m in range(start, last):
            lvl, digits = self.levels[m], tree.digits[m]
            if lvl.dim:
                for j, k in enumerate(digits[h[lvl.heads[: lvl.dim]]].tolist()):
                    if k:
                        h = lvl.divs[k - 1][j][h]
            r = digits[h[:: lvl.below // tree.p]]
            if np.count_nonzero(r):
                return m, h, r
        return last, h, tree.digits[last][h]

    def _admit(self, m: int, x, residual: np.ndarray):
        """Add the residual as row d at a level m below the last, with its
        representative and divisors; x is the element it came from, an
        array of its own, which the layer may keep.  Returns d and the hits
        to pass to _Layer.push; until then the older representatives are as
        they were before."""
        lvl = self.levels[m]
        scale, hits = lvl.add(residual, self.tree.p)
        d = lvl.dim - 1
        lvl.keep(d, _power(x, scale))
        return d, hits


def _module_generators(tree: _Tree, lvl: _Layer, new: int, conj) -> list[int]:
    """T: the indices of the rows of the level-(N-2) layer lvl that still add
    a pivot, in row order, to a scratch layer holding V.I, the span of its
    rows moved by x - 1 over the ambient generators x, given with their
    inverses in conj; or the rows from `new` on, those the closure added,
    when there are at most as many as the generators (Level N-2 in the
    module docstring)."""
    if lvl.dim - new <= len(conj):
        return list(range(new, lvl.dim))
    m, p = tree.depth - 2, tree.p
    rows, width = lvl.rows[: lvl.dim], lvl.rows.shape[1]
    # x moves the rows by its level-(N-2) vertex map: one gather for all x
    pulls = np.array([tree.pull(xinv, m) for _, xinv in conj], dtype=np.intp)
    moved = _mod(rows[:, pulls.reshape(len(conj), width)] - rows[:, None], p)
    # the last layer of the depth-(N-1) tree: level-(N-2) rows, no
    # representatives; fed label stacks of the narrow type, as a run is
    scratch = _Layer(_Tree(p, m + 1), m)
    labels = tree.digits[-1].dtype
    scratch.extend(moved.reshape(-1, width).astype(labels), p)
    return scratch.extend(rows.astype(labels), p)[0]


def _commutator_stacks(tree: _Tree, lvl: _Layer, new: int, conj) -> list:
    """[t, r] for t in T and each representative r of the level-(N-2) layer
    lvl from row `new` on, those the closure added, as stacks of level-(N-1)
    labels of at most _RUN rows, t by t and r in row order; t's commutators
    with the start's rows lie in the start (Level N-2 in the module
    docstring).  The r and their inverses are stacked one chunk of rows at
    a time, for every t."""
    reps, invs = lvl.reps, lvl.divs[0]
    ts = _module_generators(tree, lvl, new, conj)
    out = [[] for _ in ts]
    for i in range(new, lvl.dim, _RUN):
        ys, yinvs = np.stack(reps[i : i + _RUN]), np.stack(invs[i : i + _RUN])
        for stacks, t in zip(out, ts):
            comm = _comm_rows(reps[t], invs[t], ys, yinvs, tree.starts[-1])
            stacks.append(tree.digits[-1][comm])
    return [stack for stacks in out for stack in stacks]


def _close(
    tree: _Tree,
    seeds,
    conj_by,
    start: _Layers | None = None,
    ambient: _Layers | None = None,
    *,
    central: bool = False,
):
    """Layers of the closure of the seeds under conjugation by conj_by, and
    the seeds and conjugates that left a residual, in the order taken, each
    paired with the level of its residual: a generating set when there is
    no start.  A start is the layers of a subgroup normalized by conj_by and
    contained in the result; the closure grows from a share of them, and
    commutes a new representative only with the rows it added at its level,
    as its commutators with the start's rows lie in the start (Warm start in
    the module docstring).  The seeds, and the start's group, must
    lie in the group conj_by generates: Level N-2 in the module docstring
    rests on it.  An ambient is the built layers of a group that holds the
    result, W_N by default: no layer takes room beyond its dimensions, H
    takes its layers once they would fill, and phase 2 is skipped once the
    last layer is full (Full levels in the module docstring).  Every
    candidate is sifted to its first residual or the last level, on its
    images of the block starts (Block starts in the module docstring).
    central
    promises that the start holds the commutators of the result with the
    group conj_by generates: the closure then sifts the seeds and the p-th
    powers alone (Central start in the module docstring)."""
    layers = _Layers(tree, None if start is None else [lvl.share() for lvl in start.levels])
    p = tree.p
    last = tree.depth - 1
    bottom = layers.levels[last]
    dims = [p**m for m in range(tree.depth)] if ambient is None else ambient.dimensions()
    for lvl, d in zip(layers.levels, dims):
        lvl.cap = d
    # a central closure makes no conjugate: each lies in the group so far.
    # Each y with its inverse's images of the block starts, so that the
    # conjugate s^-1 w s is gathered there alone (Block starts)
    conj = [] if central else [(y, _inverse(y)[::p]) for y in conj_by]
    pulls = np.array([tree.pull(yinv) for _, yinv in conj], dtype=np.intp)
    # each level's dimension at the start: a new representative's
    # commutators with the start's rows lie in the start, so it is commuted
    # only with the rows from there on (Warm start in the module docstring)
    own = layers.dimensions()
    # the level-(N-2) layer
    mid = layers.levels[last - 1] if last else None
    # (element, level its sift starts at, None), or (labels, None, None) for
    # the level-(N-1) labels of a p-th power; (representative, level, (s,
    # s^-1)) stands for the conjugate s^-1 rep s, made when it is taken.
    # The main queue's seeds and representatives have every leaf's images,
    # the side queue's elements the block starts' (Block starts in the
    # module docstring)
    main = deque((x, 0, None) for x in seeds)
    side: deque = deque()
    # the last layer's queue: stacks of level-(N-1) labels, one vector per
    # row, each with a tag: None when it records no generator, True when
    # each of its vectors that adds a row makes one (a conjugate's), or the
    # entry in found of the seed it stands for
    stacks: deque = deque()
    # the conjugates' stacks of one, in the order taken: they join the queue
    # after the [t, r] stacks, so that fewer of them leave a residual
    late = []
    # [generator, level] in the order its candidate left the main queue; a
    # seed whose labels wait has no level until they add a row
    found = []
    # per run, the labels that add rows and make generators, made at the end
    blocks = []

    def adjoin(m, y, residual):
        lvl = layers.levels[m]
        deeper = zip(layers.levels[m + 1 :], dims[m + 1 :])
        if ambient is not None and lvl.dim + 1 == dims[m] and all(k.dim == d for k, d in deeper):
            # the residual makes H & st(m) the ambient's: take its layers
            # from m on, and copy none
            layers.levels[m:] = ambient.levels[m:]
            return
        # y holds the block starts' images; only a representative is
        # expanded to every leaf
        d, hits = layers._admit(m, tree.expand(y), residual)
        rep = lvl.reps[d]
        if m + 1 < last:
            # the p-th power, and the commutators with the peers the closure
            # added, as they were before push clears the new pivot out of
            # them, on the block starts
            side.append((tree.power(rep), m + 1, None))
            if not central:
                # [rep, y], one new array per peer y
                xinv, peers = lvl.divs[0][d][::p], slice(own[m], d)
                for y, yinv in zip(lvl.reps[peers], lvl.divs[0][peers]):
                    side.append((y[rep[yinv[xinv]]], m + 1, None))
        else:
            # at level N-2 the p-th power alone; the commutators come once
            # the layer is final
            side.append((tree.power_labels(rep), None, None))
        lvl.push(hits)
        # push replaces a representative whose row it rewrites, this one too
        # once a later row clears its pivot, and writes into none: so the
        # conjugates, made when taken from the queue, are of rep as it is now
        main.extend((rep, m, by) for by in conj)

    # phase 1: the layers above the last; what reaches the last level is
    # queued as labels, unless the last layer is full
    while side or main:
        from_main = not side
        x, start, by = (main if from_main else side).popleft()
        if start is None:
            m, labels = last, x
        else:
            # the candidate's images of the block starts
            if by is not None:
                h = _conj(x, *by)
            else:
                h = x[::p] if from_main else x
            m, y, labels = layers._sift_upper(h, start)
        if m == last and bottom.dim == dims[last]:
            # nothing that reaches a full last layer adds a row there
            continue
        if from_main and (m < last or by is None):
            # a seed's generator is the very array handed in, a conjugate's
            # its every leaf's images; while a seed's labels wait it has no
            # level
            found.append([x if by is None else tree.expand(h), m if m < last else None])
        if m < last:
            adjoin(m, y, labels)
        elif by is not None:
            late.append((labels[None], True))
        else:
            stacks.append((labels[None], found[-1] if from_main else None))
    # phase 2: the last layer, from one queue: phase 1's stacks, [t, r] for
    # t in T and each level-(N-2) representative r the closure added, the
    # conjugates' stacks, then the conjugate stacks of the rows it gains;
    # the last two record their generators after every one of phase 1; a
    # central closure has no [t, r].  It stops once the last layer is full,
    # as nothing then adds a row
    if bottom.dim < dims[last] and mid is not None and not central:
        stacks.extend((c, None) for c in _commutator_stacks(tree, mid, own[-2], conj))
    stacks.extend(late)
    # each stack then goes once its run has taken it
    del late
    while stacks and bottom.dim < dims[last]:
        # a stack joins the run whole, so a run may pass _RUN by one stack
        run, ends = [], [0]
        while stacks and ends[-1] < _RUN:
            run.append(stacks.popleft())
            ends.append(ends[-1] + len(run[-1][0]))
        tags = [tag for _, tag in run]
        u = np.concatenate([labels for labels, _ in run])
        # the stacks are copied into u; let them go before the product
        run.clear()
        added, rows = bottom.extend(u, p)
        if not added:
            continue
        owners = [tags[s - 1] for s in np.searchsorted(ends, added, side="right").tolist()]
        for tag in owners:
            if type(tag) is list:
                tag[1] = last
        # a label vector that left a residual stands for the element of
        # st(N-1) it determines, made once the closure is done
        blocks.append(u[[i for i, tag in zip(added, owners) if tag is True]])
        if conj:
            # the conjugates of each new row as it was added, row by row
            stack = rows.astype(tree.digits[-1].dtype)[:, pulls]
            stacks.append((stack.reshape(-1, u.shape[1]), True))
    # a finished group holds no room it never filled
    for lvl in layers.levels:
        if len(lvl.rows) > lvl.dim:
            lvl.resize(lvl.dim)
    # the generators given by labels, made after the copies above are
    # freed, so that the two never take memory at once: those of one run in
    # one call; the seeds whose labels added no row drop out
    found.extend([x, last] for block in blocks for x in tree.from_last_labels(block))
    return layers, [(x, m) for x, m in found if m is not None]


class Origin(NamedTuple):
    """How a handle was made (module docstring, Normal generators): the
    group it was closed in, or None (a handle keeps no subgroup, so no
    cycle); elements whose closure under that group's generators it is,
    for a normal closure every seed it was handed, in order; each
    generator's residual level, None when all were given by hand; whether
    it was closed cold, from no start, so that its generators are those the
    closure found, the seeds that left a residual first."""

    ambient: PermGroup | None = None
    elements: tuple = ()
    levels: tuple | None = None
    cold: bool = False


class PermGroup:
    """Subgroup of W_N, acting on its p**N leaves, with exact order and
    membership.

    The layers are built lazily on first use, or grown at once from the
    derived subgroup's by _grow_from, as GroupSession does; handles are
    immutable once constructed and safe to share.
    """

    def __init__(self, degree: int, generators, prime: int):
        if degree < prime:
            raise ValueError(f"degree {degree} is below the prime {prime}: no tree level")
        tree = _Tree(int(prime), level_of_degree(int(degree), int(prime)))
        gens = []
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator of degree {g.degree} in a degree-{degree} group"
                )
            gens.append(g)
        if not all(tree.in_wreath(g.images) for g in gens):
            raise NotPGroup("a generator is not a tree automorphism with cyclic vertex labels")
        self._setup(tree, gens, None, Origin())

    def _setup(self, tree: _Tree, generators, layers, origin: Origin) -> None:
        self.degree, self.prime, self._tree = len(tree.identity), tree.p, tree
        self.generators: tuple[Perm, ...] = tuple(generators)
        self._chain: _Layers | None = layers
        self.origin = origin

    def _built(self, generators, layers, origin: Origin = Origin()) -> "PermGroup":
        """A handle on the tree of the given layers, already built, made as
        origin records."""
        obj = PermGroup.__new__(PermGroup)
        obj._setup(layers.tree, generators, layers, origin)
        return obj

    # -- layers and order ----------------------------------------------------

    @property
    def chain(self) -> _Layers:
        if self._chain is None:
            gens = [g.images for g in self.generators]
            # a start is the derived subgroup's layers, which hold [G, G],
            # lent by _grow_from for this one build
            start = vars(self).pop("_start", None)
            self._chain, _ = _close(self._tree, gens, gens, start, central=start is not None)
        return self._chain

    @property
    def order_exponent(self) -> int:
        return sum(self.chain.dimensions())

    @property
    def level(self) -> int:
        return self._tree.depth

    # -- membership ---------------------------------------------------------

    def contains(self, x: Perm) -> bool:
        if x.degree != self.degree:
            raise DegreeMismatch("element degree differs from the group degree")
        return self.chain.contains(x.images)

    def containment_witness(self, other: "PermGroup"):
        """First generator of `other` outside self, or None when contained.

        None at once, with no sift, when `other` is self or was closed in
        self: it is then the closure, under self's generators, of elements
        of self.  When `other` was closed from elements E in an ambient A,
        and self is A or was closed in A too, only E is sifted: self is then
        invariant under A's generators, so it holds the closure `other` of E
        exactly when it holds E.  The first element of E outside self is
        then the first seed outside it, the first generator outside it of
        the cold closure of those seeds; so when `other` was closed cold,
        the fewer of E and its generators are sifted (Containment in the
        module docstring)."""
        if other.degree != self.degree:
            raise DegreeMismatch("groups act on different point sets")
        if other is self or other.origin.ambient is self:
            return None
        candidates = _normal_generators(other, (self, self.origin.ambient))
        if other.origin.cold:
            candidates = min(candidates, other.generators, key=len)
        for g in candidates:
            if not self.contains(g):
                return g
        return None

    # -- derived machinery --------------------------------------------------

    def derived(self) -> "PermGroup":
        """The derived subgroup: the normal closure of the commutators of
        the generators.  They lie in this group by construction, so they are
        not sifted, and the closure needs none of this group's layers.  Each
        call runs a new closure; a handle keeps no subgroup, and
        GroupSession.derived() is the one that is remembered, and the one
        whose layers the session's G grows from (_grow_from)."""
        return _normal_closure(self, _commutators(self.generators))

    def _grow_from(self, derived: "PermGroup") -> None:
        """Build this group's layers, when unbuilt, from those of its derived
        subgroup, which is normal in it, lies in it and holds its
        commutators, so that the closure sifts only this group's generators
        and their p-th powers (Central start in the module docstring).  The
        build runs through chain, as every build of a handle's own layers
        does, and the start is gone once it returns."""
        if self._chain is None:
            self._start = derived.chain
            self.chain

    def truncate(self, m: int) -> "PermGroup":
        """The level-m quotient, 1 <= m <= level: this group acting on the
        level-m vertices, with layers read off this group's and no closure.
        Its generators are the restrictions of this group's, less those a
        closure found at level m or below; see Quotients in the module
        docstring."""
        m, n = operator.index(m), self.level
        if not 1 <= m <= n:
            raise ValueError(f"level {m} outside 1..{n}")
        if m == n:
            return self
        gens, levels = self.generators, self.origin.levels
        if levels is not None:
            kept = [i for i, k in enumerate(levels) if k < m]
            gens, levels = [gens[i] for i in kept], tuple(levels[i] for i in kept)
        step = self.prime ** (n - m)
        images = np.array([g.images for g in gens], dtype=np.intp).reshape(-1, self.degree)
        restricted = [Perm._wrap(x) for x in images[:, ::step] // step]
        return self._built(restricted, self.chain.truncate(m), Origin(levels=levels))

    # -- level stabilizers ----------------------------------------------------

    def level_stabilizer(self, m: int) -> "PermGroup":
        """Kernel of the induced action on the level-m vertices: the layers
        from m on, generated by their representatives."""
        m, n = operator.index(m), self.level
        if not 0 <= m <= n:
            raise ValueError(f"level {m} outside 0..{n}")
        if m == 0:
            return self
        layers = self.chain.suffix(m)
        return self._built([Perm._wrap(r) for r in layers.representatives(m)], layers)

    # -- reporting ------------------------------------------------------------

    def chain_summary(self) -> dict:
        dims = self.chain.dimensions()
        return {
            "degree": self.degree,
            "prime": self.prime,
            "order_exponent": sum(dims),
            "level_dimensions": dims,
            # one representative per basis row; bench/spans.py reads this key
            "strong_generator_count": sum(dims),
        }

    def __repr__(self):
        built = self._chain is not None
        size = f"order {self.prime}^{self.order_exponent}" if built else "not built"
        return f"<PermGroup degree={self.degree} gens={len(self.generators)} {size}>"


def _normal_generators(group: PermGroup, ambients) -> tuple:
    """The elements of `group`'s origin, when its ambient is one of the
    ambients and not None (a group closed in nothing matches none), else the
    generators of `group`."""
    ambient = group.origin.ambient
    if ambient is not None and any(ambient is a for a in ambients):
        return group.origin.elements
    return group.generators


def _commutators(xs, ys=None) -> list[Perm]:
    """The non-trivial commutators [x, y], x in xs and y in ys, in the order
    of product(xs, ys); with no ys, those of the pairs of xs in the order of
    combinations(xs, 2).  [x, y] sends x(y(i)) to y(x(i)) (portraits.
    commutator), so one gather and one scatter over the stacked right
    factors make those of each x, with no inverse."""
    xs = list(xs)
    stack = np.array([y.images for y in (xs if ys is None else ys)], dtype=np.intp)
    out = []
    for k, x in enumerate(xs):
        right = stack if ys is not None else stack[k + 1 :]
        if len(right):
            a = x.images
            # flat indices: row j of x after right offset by j times its length
            at = a[right]
            at += np.arange(0, right.size, len(a))[:, None]
            c = np.empty_like(right)
            c.put(at, right[:, a])
            # one array each, so that a caller that keeps some frees the rest
            keep = np.flatnonzero((c != np.arange(len(a))).any(axis=1))
            out.extend(Perm._wrap(c[j].copy()) for j in keep.tolist())
    return out


def normal_closure(ambient: PermGroup, elements) -> PermGroup:
    """Smallest subgroup containing the elements and closed under
    conjugation by the ambient generators."""
    seeds = []
    for e in elements:
        if not isinstance(e, Perm):
            e = Perm(e)
        if not ambient.contains(e):
            raise ElementNotInAmbient("seed element lies outside the ambient group")
        seeds.append(e)
    return _normal_closure(ambient, seeds)


def _normal_closure(
    ambient: PermGroup, seeds, start: PermGroup | None = None, central: bool = False
) -> PermGroup:
    """normal_closure of seeds known to lie in the ambient group, which are
    not sifted.  A start is a subgroup normal in the ambient group that lies
    in the result; the closure grows from its layers (Warm start), and its
    generators and their levels come first.  Cold or warm, the origin
    records every seed, in order, as a normal generator (Normal generators
    in the module docstring).  central promises that the start holds the
    result's commutators with the ambient group (Central start)."""
    layers, found = _close(
        ambient._tree,
        [e.images for e in seeds],
        [g.images for g in ambient.generators],
        None if start is None else start.chain,
        ambient._chain,
        central=central,
    )
    gens = [Perm._wrap(a) for a, _ in found]
    levels = tuple(k for _, k in found)
    if start is not None:
        # generators given by hand are kept by every truncation, as level 0
        levels = (start.origin.levels or (0,) * len(start.generators)) + levels
        gens = [*start.generators, *gens]
    return ambient._built(gens, layers, Origin(ambient, tuple(seeds), levels, start is None))


def commutator_subgroup(
    a: PermGroup, b: PermGroup, ambient: PermGroup, start: PermGroup | None = None
) -> PermGroup:
    """Normal closure in the ambient group of the commutators [s, y], with s
    running over normal generators of `a` in the ambient group and y over
    the generators of `b`.  The s are the fewer of two such sets: its
    generators, and the elements its origin records when it was closed in
    the ambient group (the seeds it was handed, or those its maker
    recorded), which a cold closure of many redundant seeds, such as
    derived() of a group given by many generators, makes long.  That is
    [a, b] whenever both are normal in the ambient group: modulo the
    closure each s centralizes b, and so does each conjugate of s, since b
    is normal, and the conjugates of the s generate `a`.

    A start is a subgroup normal in the ambient group that lies in [a, b];
    the closure then grows from its layers, and commutes each
    representative it adds with the others it adds, not with the start's
    (Warm start in the module docstring).  The commutators lie in the
    ambient group once a and b do, so a warm closure sifts none of them; a
    cold one closes through normal_closure."""
    for sub in (a, b):
        if ambient.containment_witness(sub) is not None:
            raise ElementNotInAmbient(
                "commutator arguments must be subgroups of the ambient group"
            )
    normal = min(_normal_generators(a, (ambient,)), a.generators, key=len)
    seeds = _commutators(normal, b.generators)
    if start is None:
        # looked up on the module, so a tracer that wraps it counts this
        return normal_closure(ambient, seeds)
    return _normal_closure(ambient, seeds, start)
