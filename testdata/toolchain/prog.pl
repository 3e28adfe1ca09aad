% Tool-chain golden workload: build a binary tree, sum its leaves, then
% reverse a list naively. Small enough to trace in well under a second,
% big enough to miss in the smaller cache capacities.
mktree(0, leaf(1)) :- !.
mktree(D, node(L, R)) :- D > 0, D1 is D - 1, mktree(D1, L), mktree(D1, R).
tsum(leaf(X), X).
tsum(node(L, R), S) :- tsum(L, SL), tsum(R, SR), S is SL + SR.
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
go :- mktree(7, T), tsum(T, 128), nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20], _).
