(* The subtree-sharded epoch engine is [Hpfq.Hier_flat] itself, created with
   [~epoch] > 1; this name is kept for existing callers. *)
include Hpfq.Hier_flat
