(** The atomic-operations signature the lock-free tier is written
    against.

    {!Snapshot_store.Make} and {!Parallel.Ticket.Make} take an [S] instead of hard-coding
    [Stdlib.Atomic], so the exact protocol code that runs in production
    can also be instantiated over the traced shim in [tools/fg_race] and
    driven through bounded-exhaustive interleaving exploration. Every
    operation is sequentially consistent in both instantiations: the real
    one because OCaml's [Atomic] is seq_cst, the traced one because the
    scheduler serializes all operations on one domain. *)

module type S = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

(** The production instantiation: [Stdlib.Atomic]. *)
module Real : S
