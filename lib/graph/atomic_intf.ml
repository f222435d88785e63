(* The signature is the whole point of this module: every lock-free
   protocol in the tree (Snapshot_store, the Parallel ticket gate) is a
   functor over [S] so the same code runs over the real
   [Stdlib.Atomic] in production and over a recording scheduler shim in
   the fg_race interleaving checker. *)

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

(* [Stdlib.Atomic] satisfies [S] as-is; re-exported so instantiations can
   say [Make (Atomic_intf.Real)] without depending on module aliasing
   tricks. *)
module Real : S = Atomic
