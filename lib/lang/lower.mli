(** Lowering from kernel-language AST to {!Cgra_ir.Cdfg.t}.

    Scalars become symbol variables; array accesses become address
    arithmetic plus [Load]/[Store] nodes; [while] and [if] create basic
    blocks with [Branch] terminators; [unroll] loops are expanded at
    compile time with the induction variable bound as a constant.

    Per block, the lowering performs local value numbering of pure
    operations (notably the shared address computations) and constant
    folding — the clean-ups the paper's LLVM frontend would do — and keeps
    a scalar environment so reads after in-block assignments use the node
    value rather than the stale symbol. *)

exception Lower_error of string

val lower : ?naive:bool -> Ast.kernel -> Cgra_ir.Cdfg.t
(** Raises {!Lower_error} on semantic errors (undeclared identifiers,
    assignment to constants, non-constant [unroll] bounds, unknown
    intrinsics) and on a kernel that lowers to more than 150,000 steps:
    statements, unroll iterations and expression nodes, each unrolled
    copy counted.  The cap bounds the compile cost of any source; a
    20,000-step unroll of one short statement takes about 120,000.

    [naive] (default false) switches all inline optimization off — no
    value numbering, no algebraic folds, no load reuse — emitting one
    node per source operation.  This is the honest "what an unoptimizing
    frontend produces" baseline consumed by the [cgra_opt] pipeline;
    name resolution and the [mem_dep] ordering edges are kept because
    they are semantics, not optimization. *)
